// Unit tests for the hash join's flat build table: chains ascend in build
// order, every key bit pattern is found, sizes around powers of two work,
// hash-equal composite keys are told apart by keysEqual, and cancellation
// mid-build returns every pooled array.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

// chainOf walks t's chain for key k.
func chainOf(t *joinTable, k uint64) []int32 {
	var rows []int32
	for bi := t.find(k); bi >= 0; bi = t.next[bi] {
		rows = append(rows, bi)
	}
	return rows
}

// checkJoinTable builds a table over keys from a debug pool and asserts
// that every key's chain lists exactly its rows in ascending build order,
// that absent keys find nothing, and that release drains the pool.
func checkJoinTable(t *testing.T, name string, keys []uint64, absent []uint64) {
	t.Helper()
	pool := NewDebugBatchPool()
	var tab joinTable
	if err := tab.build(context.Background(), keys, pool); err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	if size := len(tab.head); size&(size-1) != 0 || size < 2*len(keys) {
		t.Fatalf("%s: %d slots for %d rows, want a power of two >= 2x", name, size, len(keys))
	}
	want := map[uint64][]int32{}
	for i, k := range keys {
		want[k] = append(want[k], int32(i))
	}
	for k, rows := range want {
		sameIDs(t, fmt.Sprintf("%s: key %#x", name, k), chainOf(&tab, k), rows)
	}
	for _, k := range absent {
		if _, ok := want[k]; !ok && tab.find(k) != -1 {
			t.Fatalf("%s: absent key %#x found row %d", name, k, tab.find(k))
		}
	}
	tab.release(pool)
	tab.release(pool) // idempotent
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%s: %d pooled arrays outstanding after release", name, n)
	}
	if mis := pool.Misuse(); len(mis) != 0 {
		t.Fatalf("%s: pool misuse: %v", name, mis)
	}
}

func TestJoinTable(t *testing.T) {
	neg := func(v int64) uint64 { return uint64(v) }
	special := []uint64{0, neg(-1), neg(-7), neg(math.MinInt64), 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxUint64, 1 << 63}
	checkJoinTable(t, "duplicates", []uint64{5, 3, 5, 5, 0, 3, 9, 5}, []uint64{1, 2, 4})
	checkJoinTable(t, "special keys", append(append([]uint64{}, special...), special...), []uint64{2, neg(-2), 1<<53 + 3})
	checkJoinTable(t, "empty build", nil, special)

	rng := rand.New(rand.NewSource(7))
	for _, pow := range []int{1, 2, 3, 10, 12} {
		for _, n := range []int{1<<pow - 1, 1 << pow, 1<<pow + 1} {
			// A quarter of the domain size keeps chains of several rows;
			// strided keys stress the multiplicative hash's slot spread.
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(n/4+1)) * 1024
			}
			checkJoinTable(t, fmt.Sprintf("n=%d", n), keys, []uint64{1, 1023, math.MaxUint64})
		}
	}
}

// TestJoinTableCompositeCollision forges every build row of a composite-
// key join onto one probe key's hash: emit must still return exactly the
// rows whose key columns equal the probe's, in build order, for each of
// the two distinct keys sharing the hash.
func TestJoinTableCompositeCollision(t *testing.T) {
	a := &data.Column{Name: "a", Kind: data.Int, Ints: []int64{1, 3, 1, 3}}
	b := &data.Column{Name: "b", Kind: data.Int, Ints: []int64{2, 4, 2, 4}}
	kcs := []keyCol{{pos: 0, col: a}, {pos: 0, col: b}}
	j := &hashJoinOp{
		build:        [][]int32{{0}, {1}, {2}, {3}},
		bks:          kcs,
		pks:          kcs,
		pg:           newKeyGather(kcs),
		buildIsRight: true,
	}
	if compositeKey([]int32{0}, kcs) == compositeKey([]int32{1}, kcs) {
		t.Fatal("keys (1,2) and (3,4) already hash alike; the forgery proves nothing")
	}
	for probe, want := range map[int32][]int32{0: {0, 2}, 1: {1, 3}} {
		h := compositeKey([]int32{probe}, kcs)
		pool := NewDebugBatchPool()
		if err := j.ht.build(context.Background(), []uint64{h, h, h, h}, pool); err != nil {
			t.Fatal(err)
		}
		if got := chainOf(&j.ht, h); len(got) != 4 {
			t.Fatalf("probe %d: forged chain holds %v, want all 4 rows", probe, got)
		}
		var got []int32
		for _, tup := range j.emit([]int32{probe}, nil, nil) {
			if len(tup) != 2 || tup[0] != probe {
				t.Fatalf("probe %d: malformed output tuple %v", probe, tup)
			}
			got = append(got, tup[1])
		}
		sameIDs(t, fmt.Sprintf("probe %d", probe), got, want)
		j.ht.release(pool)
		if n := pool.InUse(); n != 0 {
			t.Fatalf("probe %d: %d arrays outstanding", probe, n)
		}
	}
}

// countdownCtx reports cancellation once its Err budget is spent, so a
// sweep over budgets cancels a run at every one of its ctx checks in turn.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestJoinTableCancelMidBuild: a build canceled at a ctx check keeps its
// arrays owned by the table, and release (the operator's Close) returns
// all of them. The executor sweep then cancels a serial hash join over a
// multi-check build side at every ctx check of the run, build included.
func TestJoinTableCancelMidBuild(t *testing.T) {
	keys := make([]uint64, 3*cancelCheckRows)
	for i := range keys {
		keys[i] = uint64(i % 1000)
	}
	pool := NewDebugBatchPool()
	var tab joinTable
	if err := tab.build(newCountdownCtx(1), keys, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("build err = %v, want context.Canceled", err)
	}
	tab.release(pool)
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d arrays outstanding after a canceled build", n)
	}

	cat := shardCatalog()
	q := &query.Query{
		Refs:  []query.TableRef{{Alias: "f1", Table: "fact"}, {Alias: "f2", Table: "fact"}},
		Joins: []query.Join{{LeftAlias: "f1", LeftCol: "id", RightAlias: "f2", RightCol: "id"}},
	}
	p, err := CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	canceled := 0
	for budget := int64(0); ; budget++ {
		ex := New(cat)
		dbg := NewDebugBatchPool()
		ex.SetPool(dbg)
		_, runErr := ex.RunCtx(newCountdownCtx(budget), q, p)
		if n := dbg.InUse(); n != 0 {
			t.Fatalf("budget=%d err=%v: %d buffers outstanding", budget, runErr, n)
		}
		if mis := dbg.Misuse(); len(mis) != 0 {
			t.Fatalf("budget=%d: misuse %v", budget, mis)
		}
		if runErr == nil {
			break
		}
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("budget=%d: err = %v, want context.Canceled", budget, runErr)
		}
		canceled++
	}
	// The 10-block build side alone checks ctx ten times.
	if canceled < 10 {
		t.Fatalf("only %d canceled runs; the sweep missed the build phase", canceled)
	}
}
