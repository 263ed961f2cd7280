package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"lqo/internal/serve"
)

// quantile returns the R-7 (linear interpolation) p-quantile of xs, 0 for
// an empty sample. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// windowedP99 splits xs, in arrival order, into consecutive windows of
// per samples (a short tail joins the last window) and returns the median
// of the windows' p99s and the window count. A host stall that hits one
// window then moves the reported tail far less than it moves a p99 over
// the whole run; per must leave at least 10 samples beyond each p99.
func windowedP99(xs []float64, per int) (float64, int) {
	var p99s []float64
	for lo := 0; lo < len(xs); lo += per {
		hi := lo + per
		if len(xs)-hi < per/2 {
			hi = len(xs)
		}
		p99s = append(p99s, quantile(xs[lo:hi], 0.99))
		if hi == len(xs) {
			break
		}
	}
	return quantile(p99s, 0.5), len(p99s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported number. N is the sample count behind a
// percentile or mean (0 where the value is a single measurement).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// status classifies one served request.
type status uint8

const (
	statusOK      status = iota
	statusError          // engine error (planning or execution)
	statusRefused        // serve.ErrOverloaded or serve.ErrShed
	statusWrong          // served answer differs from the reference
)

func classify(err error) status {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrShed):
		return statusRefused
	default:
		return statusError
	}
}

// record is what the benchmark keeps of one served request: which input
// it was, what came back, and how long it took. Records are preallocated
// before a measured phase so the benchmark itself allocates nothing
// while the clock runs.
type record struct {
	input int32 // index into the workload's request inputs
	st    status
	count int64
	value float64
	work  float64 // serve.Result.Latency (work units)
	lat   time.Duration
}

// answer is a reference result from exec.ReferenceRun.
type answer struct {
	count int64
	value float64
}

// sameValue compares aggregate values bit-for-bit, treating two NaNs
// (MIN/MAX over an empty result) as equal.
func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// tally accumulates attempted/failed counts and prints every wrong or
// uncheckable answer loudly on standard error.
type tally struct {
	attempted, failed, errors, refused, wrong int
	firstErr                                  error
}

func (t *tally) add(r record, ref *answer, describe func() string) {
	t.attempted++
	st := r.st
	switch {
	case st != statusOK:
	case ref == nil:
		st = statusWrong
		fmt.Fprintf(os.Stderr, "servebench: UNCHECKED ANSWER: %s: no reference answer\n", describe())
	case r.count != ref.count || !sameValue(r.value, ref.value):
		st = statusWrong
		fmt.Fprintf(os.Stderr, "servebench: WRONG ANSWER: %s: served count=%d value=%v, reference count=%d value=%v\n",
			describe(), r.count, r.value, ref.count, ref.value)
	}
	switch st {
	case statusOK:
		return
	case statusError:
		t.errors++
	case statusRefused:
		t.refused++
	case statusWrong:
		t.wrong++
	}
	t.failed++
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errors += o.errors
	t.refused += o.refused
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// memSnapshot reads the allocation counters. ReadMemStats stops the
// world, so it is only called outside timed intervals.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// heapLiveMB collects garbage and reports the live heap in MiB. The
// second collection frees what the first only moved to sync.Pool victim
// caches (the executor's buffer pool), which would otherwise count.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	m := memSnapshot()
	return float64(m.HeapAlloc) / (1 << 20)
}

// waitUntil blocks until t. time.Sleep rounds sub-millisecond waits up
// to the runtime's timer granularity (about 1 ms on Linux), which would
// swamp request latencies of tens of microseconds. So the wait sleeps
// its thread (sleepThread) until shortly before t, leaving the CPU to
// the garbage collector and other goroutines instead of spinning, and
// yields in a loop for the last stretch.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow+100*time.Microsecond {
			sleepThread(d - spinWindow)
			continue
		}
		runtime.Gosched()
	}
}
