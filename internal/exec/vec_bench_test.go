// Micro-benchmarks for the vectorized filter kernels vs. the scalar
// matchesAll path, the typed join-key gather vs. per-row FNV mixing, and
// the pipeline hash join's build-and-probe.
//
//	go test ./internal/exec/ -bench 'Filter|KeyGather|HashJoin' -benchmem -run xx
//
// Results are recorded in EXPERIMENTS.md (E13).
package exec

import (
	"context"
	"math/rand"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

const benchRows = 1 << 20 // 1M rows, 1024 zone blocks

// benchCatalog builds a single 1M-row table with a clustered sequential
// id column (zone maps prune almost everything for selective ranges) and
// unclustered val and grp columns (zone maps prune nothing; grp has five
// values, so an Eq on it selects ~20% of rows in no pattern a branch
// predictor can follow).
func benchCatalog() (*data.Catalog, *query.Query) {
	id := &data.Column{Name: "id", Kind: data.Int}
	val := &data.Column{Name: "val", Kind: data.Int}
	grp := &data.Column{Name: "grp", Kind: data.Int}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < benchRows; i++ {
		id.Ints = append(id.Ints, int64(i))
		val.Ints = append(val.Ints, int64(i*2654435761%1000))
		grp.Ints = append(grp.Ints, rng.Int63n(5))
	}
	cat := data.NewCatalog()
	cat.Add(data.NewTable("t", id, val, grp))
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "t", Table: "t"}},
		Preds: []query.Pred{{
			Alias: "t", Column: "id", Op: query.Between,
			Val: data.IntVal(benchRows / 2), Val2: data.IntVal(benchRows/2 + benchRows/100),
		}},
	}
	return cat, q
}

func benchFilterScan(b *testing.B, novec bool, workers int) {
	cat, q := benchCatalog()
	ex := New(cat)
	ex.NoVec = novec
	ex.Workers = workers
	p, err := CanonicalPlan(q)
	if err != nil {
		b.Fatal(err)
	}
	want, err := ex.Run(q, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ex.Run(q, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != want.Count {
			b.Fatalf("count drifted: %d != %d", res.Count, want.Count)
		}
	}
}

func BenchmarkFilterScanVec(b *testing.B)      { benchFilterScan(b, false, 1) }
func BenchmarkFilterScanScalar(b *testing.B)   { benchFilterScan(b, true, 1) }
func BenchmarkFilterScanVecW4(b *testing.B)    { benchFilterScan(b, false, 4) }
func BenchmarkFilterScanScalarW4(b *testing.B) { benchFilterScan(b, true, 4) }

// benchKernelOnly isolates the filter kernel from plan/operator overhead:
// one blockFilter pass over the table vs. the scalar row loop.
func BenchmarkFilterKernelVec(b *testing.B) {
	cat, q := benchCatalog()
	cols := []*data.Column{cat.Table("t").Column("id")}
	bf := newBlockFilter(cols, q.Preds, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filterSpanTuples(context.Background(), bf, 0, benchRows, nil, nil, nil)
		_ = out
	}
}

func BenchmarkFilterKernelScalar(b *testing.B) {
	cat, q := benchCatalog()
	cols := []*data.Column{cat.Table("t").Column("id")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out [][]int32
		for r := 0; r < benchRows; r++ {
			if matchesAll(cols, q.Preds, r) {
				out = append(out, []int32{int32(r)})
			}
		}
		_ = out
	}
}

// BenchmarkFilterKernelEqUnclustered runs the bare range kernel, no tuple
// building, for a ~20%-selective Eq over the unclustered grp column:
// nothing prunes, and a per-row branch on the match would mispredict on
// about a fifth of the rows.
func BenchmarkFilterKernelEqUnclustered(b *testing.B) {
	cat, _ := benchCatalog()
	cols := []*data.Column{cat.Table("t").Column("grp")}
	preds := []query.Pred{{Alias: "t", Column: "grp", Op: query.Eq, Val: data.IntVal(2)}}
	bf := newBlockFilter(cols, preds, benchRows)
	sel := make([]int32, 0, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = bf.filterSpan(0, benchRows, sel[:0])
	}
	if n := len(sel); n < benchRows/6 || n > benchRows/4 {
		b.Fatalf("selected %d of %d rows, want ~20%%", n, benchRows)
	}
}

// Key-extraction benchmarks: the typed single-column gather (raw int64
// table keys) vs. the old always-FNV compositeKey path, over 1M one-column
// build tuples.
func benchKeyTuples() ([][]int32, []keyCol) {
	c := &data.Column{Name: "k", Kind: data.Int}
	tuples := make([][]int32, benchRows)
	backing := make([]int32, benchRows)
	for i := 0; i < benchRows; i++ {
		c.Ints = append(c.Ints, int64(i%65536))
		backing[i] = int32(i)
		tuples[i] = backing[i : i+1 : i+1]
	}
	return tuples, []keyCol{{pos: 0, col: c}}
}

func BenchmarkKeyGatherTyped(b *testing.B) {
	tuples, kcs := benchKeyTuples()
	g := newKeyGather(kcs)
	var dst []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.gather(tuples, dst)
	}
	_ = dst
}

func BenchmarkKeyGatherFNV(b *testing.B) {
	tuples, kcs := benchKeyTuples()
	dst := make([]uint64, 0, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, t := range tuples {
			dst = append(dst, compositeKey(t, kcs))
		}
	}
	_ = dst
}

// BenchmarkHashJoinFK runs a serial foreign-key-style hash join through
// the pooled pipeline: 128k probe rows whose fk cycles unclustered over
// 32k keys, against a 64k-row build side holding every key twice, so
// each probe emits two tuples (256k in all) and the plan counts them.
func BenchmarkHashJoinFK(b *testing.B) {
	const factRows, dimRows, nkeys = 1 << 17, 1 << 16, 1 << 15
	fk := &data.Column{Name: "fk", Kind: data.Int}
	for i := 0; i < factRows; i++ {
		fk.Ints = append(fk.Ints, int64(i*2654435761%nkeys))
	}
	id := &data.Column{Name: "id", Kind: data.Int}
	for i := 0; i < dimRows; i++ {
		id.Ints = append(id.Ints, int64(i%nkeys))
	}
	cat := data.NewCatalog()
	cat.Add(data.NewTable("fact", fk))
	cat.Add(data.NewTable("dim", id))
	q := &query.Query{
		Refs:  []query.TableRef{{Alias: "f", Table: "fact"}, {Alias: "d", Table: "dim"}},
		Joins: []query.Join{{LeftAlias: "f", LeftCol: "fk", RightAlias: "d", RightCol: "id"}},
	}
	p, err := CanonicalPlan(q)
	if err != nil {
		b.Fatal(err)
	}
	ex := New(cat)
	ex.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ex.Run(q, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != 2*factRows {
			b.Fatalf("join count %d, want %d", res.Count, 2*factRows)
		}
	}
}
