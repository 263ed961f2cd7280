package main

import (
	"context"
	"runtime"
	"time"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/serve"
	"lqo/internal/sqlx"
)

// Mirrors of serve.Config's defaults; the replay must make the decisions
// an untouched serve.Server makes.
const (
	defaultInvalidateQError = 4
	defaultFeedbackCap      = 8192
)

// replayer serves requests the way serve.Server.run does, but through
// the layers' public functions, with a span around every call. It keeps
// its own plan cache and feedback store, so it runs beside (never inside)
// a server. Admission control and the server mutex have no public entry
// point; their cost is what serve.unaccounted_us measures.
type replayer struct {
	cat      *data.Catalog
	ex       *exec.Executor
	enum     *opt.Optimizer // enumeration only: empty pass pipeline
	passes   *plan.PassPipeline
	overlay  *feedbackOverlay
	cache    *serve.PlanCache
	feedback map[string]float64
	obs      serve.ExecObserver
	tr       *tracer

	plansConsidered []float64
	passesFired     []float64
	ops             *opTotals
	executed        []executed // the first maxAllocRuns executions, for execAllocs
}

// executed is one replayed execution.
type executed struct {
	q *query.Query
	p *plan.Node
}

// maxAllocRuns bounds the executions execAllocs re-runs.
const maxAllocRuns = 500

// newReplayer replays over o's catalog, estimator and cost model, with a
// plan cache of cacheSize plans (0 = serve's default).
func newReplayer(o *opt.Optimizer, ex *exec.Executor, cacheSize int, tr *tracer) *replayer {
	r := &replayer{
		cat:      o.Cat,
		ex:       ex,
		passes:   plan.DefaultPipeline(o.Shards),
		cache:    serve.NewPlanCache(cacheSize),
		feedback: make(map[string]float64),
		tr:       tr,
		ops:      newOpTotals(),
	}
	r.overlay = &feedbackOverlay{r: r, base: timedEstimator{tr: tr, base: o.Est}}
	r.enum = o.WithEstimator(r.overlay)
	r.enum.Passes = &plan.PassPipeline{}
	return r
}

// feedbackOverlay answers harvested true cardinalities where known and
// asks the base estimator otherwise, clamping like serve's overlay.
type feedbackOverlay struct {
	r    *replayer
	base opt.CardEstimator
}

func (f *feedbackOverlay) Estimate(q *query.Query) float64 {
	if c, ok := f.r.feedback[q.Key()]; ok {
		return metrics.ClampCard(c)
	}
	return metrics.ClampCard(f.base.Estimate(q))
}

// timedEstimator wraps every estimator call in a cardest span.
type timedEstimator struct {
	tr   *tracer
	base opt.CardEstimator
}

func (t timedEstimator) Estimate(q *query.Query) float64 {
	s := t.tr.begin(spanEstimate)
	c := t.base.Estimate(q)
	t.tr.end(s)
	return c
}

// FlushPlans and ResetFeedback make the replayer an adapt.Host.
func (r *replayer) FlushPlans() int { return r.cache.Clear() }

func (r *replayer) ResetFeedback() int {
	n := len(r.feedback)
	r.feedback = make(map[string]float64)
	return n
}

// query replays serve.Server.Query for request req.
func (r *replayer) query(ctx context.Context, req int32, sql string) (*serve.Result, error) {
	r.tr.req = req
	defer func() { r.tr.req = -1 }()
	root := r.tr.begin(spanRequest)
	defer r.tr.end(root)
	s := r.tr.begin(spanParse)
	q, err := sqlx.Parse(sql, r.cat)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = r.tr.begin(spanKey)
	key := q.Key()
	r.tr.end(s)
	return r.run(ctx, q, key, false)
}

// exec replays serve.Server.Exec for request req.
func (r *replayer) exec(ctx context.Context, req int32, stmt *sqlx.Prepared, args []any) (*serve.Result, error) {
	r.tr.req = req
	defer func() { r.tr.req = -1 }()
	root := r.tr.begin(spanRequest)
	defer r.tr.end(root)
	s := r.tr.begin(spanBind)
	q, err := stmt.Bind(args...)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, q, stmt.ShapeKey(), true)
}

// run follows serve.Server.run step by step: fetch or plan, execute,
// harvest feedback, check the cached plan, notify the observer.
func (r *replayer) run(ctx context.Context, q *query.Query, key string, rebind bool) (*serve.Result, error) {
	s := r.tr.begin(spanCacheGet)
	p := r.cache.Get(key)
	r.tr.end(s)
	cached := p != nil
	if cached && rebind {
		s = r.tr.begin(spanRebind)
		p.Walk(func(n *plan.Node) {
			if n.IsLeaf() || n.Op == plan.Merge {
				n.Preds = q.PredsOn(n.Alias)
			}
		})
		r.tr.end(s)
	}
	if p == nil {
		var trace []plan.PassTrace
		s = r.tr.begin(spanEnumerate)
		root, err := r.enum.OptimizeCtx(ctx, q)
		r.tr.end(s)
		if err != nil {
			return nil, err
		}
		r.plansConsidered = append(r.plansConsidered, float64(r.enum.PlansConsidered()))
		s = r.tr.begin(spanPasses)
		// The overlay clamps to [1, MaxCard], so the optimizer's own
		// estimate sanitizer would pass its answers through unchanged.
		p, trace, err = r.passes.Run(ctx, root, &plan.PassContext{Query: q, Estimate: r.overlay.Estimate, Shards: r.enum.Shards})
		r.tr.end(s)
		if err != nil {
			return nil, err
		}
		fired := 0
		for _, t := range trace {
			if t.Fired {
				fired++
			}
		}
		r.passesFired = append(r.passesFired, float64(fired))
		s = r.tr.begin(spanCachePut)
		r.cache.Put(key, p)
		r.tr.end(s)
		return r.execute(ctx, q, key, p, false)
	}
	return r.execute(ctx, q, key, p, cached)
}

func (r *replayer) execute(ctx context.Context, q *query.Query, key string, p *plan.Node, cached bool) (*serve.Result, error) {
	s := r.tr.begin(spanExec)
	res, pt, err := r.ex.RunAnalyze(ctx, q, p)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	r.ops.add(p, pt)
	if len(r.executed) < maxAllocRuns {
		r.executed = append(r.executed, executed{q: q, p: p})
	}
	s = r.tr.begin(spanHarvest)
	cards := opt.CardsFromPlan(q, p)
	r.tr.end(s)
	r.absorb(cards)
	if cached {
		s = r.tr.begin(spanCacheObserve)
		r.cache.Observe(key, p, defaultInvalidateQError)
		r.tr.end(s)
	}
	if r.obs != nil {
		s = r.tr.begin(spanObserve)
		r.obs.ObserveExec(q, p)
		r.tr.end(s)
	}
	return &serve.Result{Count: res.Count, Value: res.Value, Latency: res.Stats.WorkUnits, Cached: cached}, nil
}

// absorb mirrors the server's bounded feedback store: existing keys
// update, new keys stop landing once the store is full.
func (r *replayer) absorb(cards map[string]float64) {
	for k, v := range cards {
		if _, ok := r.feedback[k]; !ok && len(r.feedback) >= defaultFeedbackCap {
			continue
		}
		r.feedback[k] = v
	}
}

// layerMetrics derives the span-based per-layer metrics. measured keeps
// the requests that were also timed untraced; untracedUs is their mean
// untraced service time in microseconds.
func (r *replayer) layerMetrics(measured func(req int32) bool, untracedUs float64) []metric {
	tr := r.tr
	self := tr.selfTimes()
	p50 := func(name string, k spanKind) metric {
		d := tr.durations(k)
		return metric{Name: name, Value: quantile(d, 0.5), Unit: "us", N: len(d)}
	}

	// Enumeration time spent inside the estimator.
	var enumTotal, estInEnum time.Duration
	estCalls := 0
	var estTotal time.Duration
	for _, s := range tr.spans {
		switch s.kind {
		case spanEnumerate:
			enumTotal += s.dur()
		case spanEstimate:
			estCalls++
			estTotal += s.dur()
			if s.parent >= 0 && tr.spans[s.parent].kind == spanEnumerate {
				estInEnum += s.dur()
			}
		}
	}
	plans := len(r.plansConsidered)

	// Traced service time and the time the layer spans account for, per
	// measured request.
	var traced, layers []float64
	for i, s := range tr.spans {
		if s.kind == spanRequest && measured(s.req) {
			traced = append(traced, us(s.dur()))
			layers = append(layers, us(s.dur()-self[i]))
		}
	}

	enum := tr.durations(spanEnumerate)
	execRun := tr.durations(spanExec)
	ticks := tr.durations(spanTick)
	out := []metric{
		p50("sqlx.parse_us.p50", spanParse),
		p50("sqlx.bind_us.p50", spanBind),
		p50("query.key_us.p50", spanKey),
		p50("serve.cache_get_us.p50", spanCacheGet),
		p50("serve.cache_observe_us.p50", spanCacheObserve),
		{Name: "serve.unaccounted_us", Value: untracedUs - mean(layers), Unit: "us", N: len(layers)},
		{Name: "opt.enumerate_us.p50", Value: quantile(enum, 0.5), Unit: "us", N: len(enum)},
		{Name: "opt.enumerate_us.p99", Value: quantile(enum, 0.99), Unit: "us", N: len(enum)},
		{Name: "opt.plans_considered", Value: mean(r.plansConsidered), Unit: "count", N: plans},
		p50("opt.harvest_us.p50", spanHarvest),
		{Name: "cardest.calls_per_plan", Value: ratio(float64(estCalls), float64(plans)), Unit: "count", N: plans},
		{Name: "cardest.estimate_us", Value: ratio(us(estTotal), float64(estCalls)), Unit: "us", N: estCalls},
		{Name: "cardest.share", Value: ratio(float64(estInEnum), float64(enumTotal)), Unit: "ratio", N: len(enum)},
		p50("plan.passes_us.p50", spanPasses),
		{Name: "plan.passes_fired", Value: mean(r.passesFired), Unit: "count", N: len(r.passesFired)},
		{Name: "exec.run_us.p50", Value: quantile(execRun, 0.5), Unit: "us", N: len(execRun)},
		{Name: "exec.run_us.p99", Value: quantile(execRun, 0.99), Unit: "us", N: len(execRun)},
		p50("adapt.observe_us.p50", spanObserve),
		{Name: "adapt.tick_us.p50", Value: quantile(ticks, 0.5), Unit: "us", N: len(ticks)},
		{Name: "adapt.tick_us.max", Value: maxOf(ticks), Unit: "us", N: len(ticks)},
		{Name: "bench.trace_overhead", Value: ratio(mean(traced), untracedUs), Unit: "ratio", N: len(traced)},
	}
	appends := tr.durations(spanAppend)
	out = append(out, metric{Name: "data.append_ms", Value: mean(appends) / 1000, Unit: "ms", N: len(appends)})
	return append(out, r.ops.metrics()...)
}

// execAllocs re-runs the replay's first executions between two
// allocation snapshots and reports heap allocations per run.
func execAllocs(ctx context.Context, ex *exec.Executor, runs []executed) metric {
	runtime.GC()
	m0 := memSnapshot()
	for _, r := range runs {
		// Each plan ran successfully in the replay; only allocations matter.
		_, _ = ex.RunCtx(ctx, r.q, r.p)
	}
	m1 := memSnapshot()
	return metric{Name: "exec.allocs_per_run", Value: ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(runs))), Unit: "count", N: len(runs)}
}
