package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/serve"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

// readSpec parameterizes the two read-only workloads, which differ in
// what the plan cache can do for them.
type readSpec struct {
	name      string
	scale     float64 // datagen.StatsCEB scale
	estimator string  // cardest registry name of the planning estimator
	distinct  int     // >0: a working set of this many distinct queries replayed round-robin
	stream    int     // >0: a stream of this many generated queries, served in order
	warmup    int     // stream queries served during set-up
	minJoins  int
	maxJoins  int
	cacheSize int     // plan cache capacity (0 = serve's default of 512)
	openRate  float64 // open-loop arrival rate, requests per second
}

const (
	readMaxPreds = 3
	// closedShare is the fraction of --seconds spent in the closed-loop
	// phase; the open-loop phase takes the rest.
	closedShare = 0.4
)

func (s readSpec) params() map[string]any {
	cache := s.cacheSize
	if cache == 0 {
		cache = 512
	}
	return map[string]any{
		"catalog": "datagen.StatsCEB", "scale": s.scale, "estimator": s.estimator,
		"distinct_queries": s.distinct, "stream_queries": s.stream, "warmup_requests": s.warmup,
		"joins": fmt.Sprintf("%d-%d", s.minJoins, s.maxJoins), "max_preds": readMaxPreds,
		"plan_cache": cache, "open_rate_qps": s.openRate, "clients": clients, "write_fraction": 0.0,
		"phases": fmt.Sprintf("closed loop %.0f%% then open loop %.0f%% of --seconds", 100*closedShare, 100*(1-closedShare)),
	}
}

// readEnv is one set-up of a read workload.
type readEnv struct {
	spec readSpec
	cat  *data.Catalog
	o    *opt.Optimizer
	ex   *exec.Executor
	srv  *serve.Server
	// The inputs are kept as SQL text and the reference answers by
	// value, so while the server runs the garbage collector marks 40 000
	// strings rather than 40 000 parsed query trees.
	sqls    []string
	refs    []answer // per input, valid where checked is set
	checked []bool   // reference computed (cold inputs: after the run)
	refErr  []error
	oracle  *exec.Executor
	phase   [2]int       // input range [lo, hi) the current phase cycles over
	cursor  atomic.Int64 // requests sent in the current phase
	collect time.Duration
	train   time.Duration
}

// newReadEnv builds catalog, statistics, estimator, optimizer, executor
// and inputs. The working-set workload also computes its reference
// answers here.
func newReadEnv(ctx context.Context, spec readSpec, seed int64) (*readEnv, error) {
	e := &readEnv{spec: spec}
	e.cat = datagen.StatsCEB(datagen.Config{Seed: catalogSeed, Scale: spec.scale})
	t := time.Now()
	cs := stats.CollectCatalog(e.cat, stats.Options{Seed: catalogSeed})
	e.collect = time.Since(t)
	t = time.Now()
	est, err := cardest.ByName(spec.estimator)
	if err != nil {
		return nil, err
	}
	if err := est.Train(&cardest.Context{Cat: e.cat, Stats: cs, Seed: catalogSeed}); err != nil {
		return nil, fmt.Errorf("train %s: %w", spec.estimator, err)
	}
	e.train = time.Since(t)
	e.o = opt.New(e.cat, cost.New(cs), nil).WithEstimator(est)
	e.ex = exec.New(e.cat)
	e.oracle = exec.New(e.cat)

	n := spec.distinct
	if n == 0 {
		n = spec.stream
	}
	opts := workload.Options{Seed: seed, Count: n, MinJoins: spec.minJoins, MaxJoins: spec.maxJoins, MaxPreds: readMaxPreds}
	if spec.distinct > 0 {
		// Distinct canonical keys, so the working set occupies exactly
		// `distinct` cache entries. The generator is deterministic in its
		// seed, so a longer request yields the same prefix.
		opts.Count = 4 * n
	}
	seen := map[string]bool{}
	for _, q := range workload.GenWorkload(e.cat, opts) {
		if spec.distinct > 0 {
			k := q.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		e.sqls = append(e.sqls, q.SQL())
		if len(e.sqls) == n {
			break
		}
	}
	if len(e.sqls) < n {
		return nil, fmt.Errorf("generator gave %d distinct queries, want %d", len(e.sqls), n)
	}
	e.refs = make([]answer, n)
	e.checked = make([]bool, n)
	e.refErr = make([]error, n)
	if spec.distinct > 0 {
		for i := range e.sqls {
			e.reference(ctx, i)
		}
	}
	return e, nil
}

// reference computes input i's answer with exec.ReferenceRun over
// exec.CanonicalPlan, once.
func (e *readEnv) reference(ctx context.Context, i int) {
	if e.checked[i] {
		return
	}
	e.checked[i] = true
	q, err := sqlx.Parse(e.sqls[i], e.cat)
	if err == nil {
		var cp *plan.Node
		if cp, err = exec.CanonicalPlan(q); err == nil {
			var res *exec.Result
			if res, err = e.oracle.ReferenceRun(ctx, q, cp); err == nil {
				e.refs[i] = answer{count: res.Count, value: res.Value}
				return
			}
		}
	}
	e.refErr[i] = err
}

// Each phase cycles over a fixed range of inputs from its start, so the
// queries a phase serves never depend on how fast an earlier phase ran.
// The working set is one range. The stream is split: warm-up, then the
// closed loop's first half, then the open loop's (and the traced
// passes') second half.
type phase int

const (
	phaseWarmup phase = iota
	phaseClosed
	phaseOpen
)

// inputs returns the input range [lo, hi) phase p cycles over.
func (e *readEnv) inputs(p phase) [2]int {
	n := len(e.sqls)
	switch {
	case e.spec.distinct > 0:
		return [2]int{0, n}
	case p == phaseWarmup:
		return [2]int{0, e.spec.warmup}
	case p == phaseClosed:
		return [2]int{e.spec.warmup, n / 2}
	default:
		return [2]int{n / 2, n}
	}
}

// begin starts phase p at the first input of its range.
func (e *readEnv) begin(p phase) {
	e.phase = e.inputs(p)
	e.cursor.Store(0)
}

// next returns the input of the phase's next request.
func (e *readEnv) next() int {
	lo, hi := e.phase[0], e.phase[1]
	return lo + int((e.cursor.Add(1)-1)%int64(hi-lo))
}

// warmupCount is how many requests warm the plan cache at set-up: every
// working-set query once, or the stream's warm-up range.
func (e *readEnv) warmupCount() int {
	r := e.inputs(phaseWarmup)
	return r[1] - r[0]
}

// startServer builds the server and warms its plan cache.
func (e *readEnv) startServer(ctx context.Context) {
	e.srv = serve.New(e.cat, e.o, e.ex, serve.Config{CacheSize: e.spec.cacheSize})
	e.begin(phaseWarmup)
	for i := e.warmupCount(); i > 0; i-- {
		// A failing query fails again when measured; it is counted there.
		_, _ = e.srv.Query(ctx, tenants[0], e.sqls[e.next()])
	}
}

// serveOne sends the next request of the phase and records it.
func (e *readEnv) serveOne(ctx context.Context, tenant string, due time.Time) record {
	in := e.next()
	res, err := e.srv.Query(ctx, tenant, e.sqls[in])
	r := record{input: int32(in), st: classify(err), lat: time.Since(due)}
	if err == nil {
		r.count, r.value, r.work = res.Count, res.Value, res.Latency
	}
	return r
}

// closedLoop runs `clients` goroutines that each send their next request
// as soon as the previous one returns, for dur. It returns every record
// and the phase's wall time.
func (e *readEnv) closedLoop(ctx context.Context, dur time.Duration) ([]record, time.Duration) {
	perClient := make([][]record, clients)
	for c := range perClient {
		perClient[c] = make([]record, 0, 1<<17)
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				perClient[c] = append(perClient[c], e.serveOne(ctx, tenants[c], now))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []record
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all, elapsed
}

// openLoop sends requests on a fixed schedule at rate per second for dur,
// whether or not earlier requests have returned. Each latency is timed
// from the request's scheduled send, so a stall also charges the
// requests queued behind it; lag records how late each send started.
func (e *readEnv) openLoop(ctx context.Context, rate float64, dur time.Duration) ([]record, []time.Duration) {
	n := int(rate * dur.Seconds())
	recs := make([]record, n)
	lag := make([]time.Duration, n)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				waitUntil(due)
				lag[i] = time.Since(due)
				recs[i] = e.serveOne(ctx, tenants[c], due)
			}
		}(c)
	}
	wg.Wait()
	return recs, lag
}

// check compares records with the reference answers, computing any that
// are missing (stream inputs) first — outside every timed interval.
func (e *readEnv) check(ctx context.Context, recs []record) tally {
	var t tally
	for _, r := range recs {
		in := int(r.input)
		e.reference(ctx, in)
		var ref *answer
		if e.refErr[in] == nil {
			ref = &e.refs[in]
		} else if t.firstErr == nil {
			t.firstErr = fmt.Errorf("reference for %q: %w", e.sqls[in], e.refErr[in])
		}
		t.add(r, ref, func() string { return e.sqls[in] })
	}
	return t
}

// runRead measures a read workload: repeated set-ups for setup_s, a
// closed-loop phase for throughput, an open-loop phase at the fixed rate
// for latency, then the answer check. With trace it also replays a
// single-client request sequence through the traced layer calls.
func runRead(ctx context.Context, spec readSpec, cfg runConfig) (*outcome, error) {
	var e *readEnv
	var setups []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		e = nil
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = newReadEnv(ctx, spec, cfg.seed); err != nil {
			return nil, err
		}
		e.startServer(ctx)
		setups = append(setups, time.Since(t).Seconds())
	}
	if err := assertLoad(e.ex); err != nil {
		return nil, err
	}
	before := e.srv.Stats()

	total := time.Duration(cfg.seconds) * time.Second
	closedDur := time.Duration(float64(total) * closedShare)
	runtime.GC()
	e.begin(phaseClosed)
	m0 := memSnapshot()
	closed, closedWall := e.closedLoop(ctx, closedDur)
	m1 := memSnapshot()
	runtime.GC()
	e.begin(phaseOpen)
	m2 := memSnapshot()
	open, lag := e.openLoop(ctx, spec.openRate, total-closedDur)
	m3 := memSnapshot()
	allocated := float64(m1.TotalAlloc-m0.TotalAlloc) + float64(m3.TotalAlloc-m2.TotalAlloc)
	after := e.srv.Stats()

	t := e.check(ctx, closed)
	t.merge(e.check(ctx, open))
	completed, okClosed := 0, 0
	var work float64
	for _, rs := range [][]record{closed, open} {
		for _, r := range rs {
			if r.st == statusOK {
				completed++
				work += r.work
			}
		}
	}
	for _, r := range closed {
		if r.st == statusOK {
			okClosed++
		}
	}
	lat := make([]float64, len(open))
	svc := make([]float64, len(open))
	lags := make([]float64, len(lag))
	for i, r := range open {
		lat[i], svc[i], lags[i] = ms(r.lat), ms(r.lat-lag[i]), ms(lag[i])
	}
	// Latency is service time (send to completion) under the open-loop
	// load. The p99 is the median over windows of at least one second
	// and 1000 requests. On a small VM the host stalls the vCPUs for
	// ~4 ms at rates that change from minute to minute, and every request
	// due during a stall, or whose client was woken late, starts late:
	// timed from the schedule, the p99 flipped between the stall length
	// and the service tail from run to run, and the median moved with
	// wake-up delays. The schedule-timed figures stay in the provenance.
	p99, windows := windowedP99(svc, max(1000, int(spec.openRate)))
	out := &outcome{tally: t, setup: setups, p99Windows: windows, schedP50: quantile(lat, 0.5), schedP99: quantile(lat, 0.99)}
	out.e2e = []metric{
		{Name: "lat_p50_ms", Value: quantile(svc, 0.5), Unit: "ms", N: len(svc)},
		{Name: "lat_p99_ms", Value: p99, Unit: "ms", N: len(svc)},
		{Name: "throughput_qps", Value: float64(okClosed) / closedWall.Seconds(), Unit: "req/s", N: len(closed)},
		{Name: "work_per_query", Value: ratio(work, float64(completed)), Unit: "work", N: completed},
		{Name: "alloc_kb_per_query", Value: ratio(allocated/1024, float64(completed)), Unit: "KiB", N: completed},
	}
	out.genLagTail = mean(lags[len(lags)*9/10:])

	st := statsDelta(before, after)
	kreq := float64(len(closed)+len(open)) / 1000
	out.layers = []metric{
		{Name: "serve.hit_rate", Value: ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)), Unit: "ratio", N: int(st.Cache.Hits + st.Cache.Misses)},
		{Name: "serve.evictions_per_kreq", Value: ratio(float64(st.Cache.Evictions), kreq), Unit: "1/kreq"},
		{Name: "serve.invalidations_per_kreq", Value: ratio(float64(st.Cache.Invalidations), kreq), Unit: "1/kreq"},
		{Name: "serve.cold_plans_per_kreq", Value: ratio(float64(st.ColdPlans), kreq), Unit: "1/kreq"},
		{Name: "bench.gen_lag_ms.p99", Value: quantile(lags, 0.99), Unit: "ms", N: len(lags)},
		{Name: "stats.collect_ms", Value: ms(e.collect), Unit: "ms"},
		{Name: "cardest.train_ms", Value: ms(e.train), Unit: "ms"},
		{Name: "data.rows_final", Value: float64(e.cat.TotalRows()), Unit: "count"},
		{Name: "adapt.rounds", Value: 0, Unit: "count"},
		{Name: "adapt.swaps", Value: 0, Unit: "count"},
		{Name: "adapt.rollbacks", Value: 0, Unit: "count"},
		{Name: "adapt.gate_rejects", Value: 0, Unit: "count"},
	}
	if cfg.trace {
		layers, rt, err := traceRead(ctx, spec, cfg, e, total/4)
		if err != nil {
			return nil, err
		}
		out.layers = append(out.layers, layers...)
		out.tally.merge(rt)
	}
	// The inputs and references are the benchmark's, not the server's.
	e.sqls, e.refs, e.checked, e.refErr = nil, nil, nil, nil
	out.heapMB = heapLiveMB()
	runtime.KeepAlive(e)
	return out, nil
}

// maxTracedRequests bounds a read workload's traced replay, and so its
// span file.
const maxTracedRequests = 20000

// traceRead times a single-client untraced pass over the request
// sequence for dur (at most maxTracedRequests) on a freshly set-up server, then replays the same
// requests, after the same warm-up, through the traced layer calls on
// another fresh set-up, so both start from the same cache and feedback
// state. e is the measured run's set-up, whose reference answers apply.
func traceRead(ctx context.Context, spec readSpec, cfg runConfig, e *readEnv, dur time.Duration) ([]metric, tally, error) {
	a, err := newReadEnv(ctx, spec, cfg.seed)
	if err != nil {
		return nil, tally{}, err
	}
	a.startServer(ctx)
	a.begin(phaseOpen)
	var untraced []record
	for start := time.Now(); time.Since(start) < dur && len(untraced) < maxTracedRequests; {
		untraced = append(untraced, a.serveOne(ctx, tenants[0], time.Now()))
	}
	b, err := newReadEnv(ctx, spec, cfg.seed)
	if err != nil {
		return nil, tally{}, err
	}
	tr := newTracer()
	r := newReplayer(b.o, b.ex, spec.cacheSize, tr)
	var inputs []int
	b.begin(phaseWarmup)
	for i := b.warmupCount(); i > 0; i-- {
		inputs = append(inputs, b.next())
	}
	warm := int32(len(inputs))
	for _, u := range untraced {
		inputs = append(inputs, int(u.input))
	}
	var replayed []record
	for i, in := range inputs {
		res, err := r.query(ctx, int32(i), b.sqls[in])
		rec := record{input: int32(in), st: classify(err)}
		if err == nil {
			rec.count, rec.value = res.Count, res.Value
		}
		replayed = append(replayed, rec)
	}
	lat := make([]float64, len(untraced))
	for i, u := range untraced {
		lat[i] = us(u.lat)
	}
	layers := r.layerMetrics(func(req int32) bool { return req >= warm }, mean(lat))
	layers = append(layers, execAllocs(ctx, b.ex, r.executed))
	if err := tr.write(cfg.spansPath); err != nil {
		return nil, tally{}, err
	}
	t := e.check(ctx, untraced)
	t.merge(e.check(ctx, replayed))
	return layers, t, nil
}
