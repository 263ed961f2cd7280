package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lqo/internal/exec"
	"lqo/internal/plan"
)

// spanKind names the layer call a span wraps. Names are
// "<package>.<call>" so a span file reads by layer.
type spanKind uint8

const (
	spanRequest      spanKind = iota // one served request, the root of its layer spans
	spanParse                        // sqlx.Parse
	spanBind                         // sqlx.Prepared.Bind
	spanKey                          // query.Query.Key
	spanCacheGet                     // serve.PlanCache.Get (clone included)
	spanRebind                       // generic-plan leaf rebinding (serve)
	spanCachePut                     // serve.PlanCache.Put
	spanCacheObserve                 // serve.PlanCache.Observe
	spanEnumerate                    // opt.Optimizer.OptimizeCtx with an empty pass pipeline
	spanEstimate                     // cardest estimator call
	spanPasses                       // plan.PassPipeline.Run (default pipeline)
	spanExec                         // exec.Executor.RunAnalyze
	spanHarvest                      // opt.CardsFromPlan
	spanObserve                      // adapt.Loop.ObserveExec
	spanTick                         // adapt.Loop.Tick
	spanAppend                       // datagen.ApplyDrift
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"serve.request", "sqlx.parse", "sqlx.bind", "query.key", "serve.cache_get",
	"serve.rebind", "serve.cache_put", "serve.cache_observe", "opt.enumerate",
	"cardest.estimate", "plan.passes", "exec.run", "opt.harvest",
	"adapt.observe", "adapt.tick", "data.append",
}

// span is one timed call. Spans are kept in memory for the whole run and
// written out when it ends.
type span struct {
	start, end int64 // ns since the tracer's base time
	parent     int32 // index of the enclosing span, -1 for a root
	req        int32 // request the span belongs to, -1 outside requests
	kind       spanKind
}

// tracer records nested spans from a single goroutine.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<18), req: -1}
}

func (t *tracer) begin(k spanKind) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: parent, req: t.req, start: int64(time.Since(t.base))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// selfTimes returns each span's duration minus the durations of the
// child spans it covers. Spans from one goroutine nest strictly, so the
// children never overlap.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// durations returns the durations, in microseconds, of every span of
// kind k.
func (t *tracer) durations(k spanKind) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.kind == k {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.parent, s.req, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opKinds are the operator kinds reported per operator; other operators
// (exchange, merge, merge join) never appear with serial execution on an
// unsharded optimizer.
var opKinds = []string{"seq_scan", "index_scan", "hash_join", "nested_loop", "aggregate"}

func opKind(t *exec.OpTelemetry) string {
	if t.Node == nil {
		return "aggregate"
	}
	switch t.Node.Op {
	case plan.SeqScan:
		return "seq_scan"
	case plan.IndexScan:
		return "index_scan"
	case plan.HashJoin:
		return "hash_join"
	case plan.NestedLoopJoin:
		return "nested_loop"
	}
	return ""
}

// opTotals accumulates per-operator-kind self time and rows from executed
// plans' telemetry.
type opTotals struct {
	self          map[string]time.Duration
	ops, rows     map[string]int64
	blocks, skips int64
}

func newOpTotals() *opTotals {
	return &opTotals{self: map[string]time.Duration{}, ops: map[string]int64{}, rows: map[string]int64{}}
}

// add folds one execution in. An operator's self time is its inclusive
// wall time minus its children's: the aggregate sink's child is the plan
// root, a join's children are its inputs.
func (o *opTotals) add(p *plan.Node, pt *exec.PlanTelemetry) {
	for _, t := range pt.Ops {
		kind := opKind(t)
		if kind == "" {
			continue
		}
		self := t.Wall
		children := []*plan.Node{p}
		if t.Node != nil {
			children = []*plan.Node{t.Node.Left, t.Node.Right}
		}
		for _, c := range children {
			if c == nil {
				continue
			}
			if ct, ok := pt.ByNode(c); ok {
				self -= ct.Wall
			}
		}
		o.self[kind] += self
		o.ops[kind]++
		o.rows[kind] += t.RowsIn
	}
	total, skipped := pt.Blocks()
	o.blocks += total
	o.skips += skipped
}

func (o *opTotals) metrics() []metric {
	var out []metric
	for _, k := range opKinds {
		n := int(o.ops[k])
		out = append(out,
			metric{Name: "exec.self_us." + k, Value: ratio(us(o.self[k]), float64(n)), Unit: "us", N: n},
			metric{Name: "exec.ns_per_row." + k, Value: ratio(float64(o.self[k]), float64(o.rows[k])), Unit: "ns/row", N: n})
	}
	return append(out, metric{Name: "exec.blocks_skipped_ratio", Value: ratio(float64(o.skips), float64(o.blocks)), Unit: "ratio", N: int(o.blocks)})
}
