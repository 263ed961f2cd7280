package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lqo/internal/adapt"
	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/guard"
	"lqo/internal/opt"
	"lqo/internal/serve"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

// driftP99Window is the request count of one lat_p99_ms window.
const driftP99Window = 1000

// The drift workload's parameters.
const (
	driftScale       = 5    // datagen.StatsCEB scale: votes has 50k rows
	driftPerSecond   = 2500 // requests per second of --seconds: the run serves a fixed count
	driftBatchEvery  = 5000 // requests between write batches
	driftFraction    = 0.05 // rows appended per batch, as a fraction of each table
	driftValueSkew   = 2.5  // datagen.DriftOptions.ValueSkew
	driftDomainShift = 0.3  // datagen.DriftOptions.DomainShift
	driftHoldout     = 12   // gate holdout queries, relabeled after every batch
)

func driftParams(seconds int) map[string]any {
	return map[string]any{
		"catalog": "datagen.StatsCEB", "scale": driftScale, "estimator": "histogram behind adapt.Swappable",
		"requests": driftPerSecond * seconds, "batch_every": driftBatchEvery, "write_fraction": driftFraction,
		"value_skew": driftValueSkew, "domain_shift": driftDomainShift, "holdout": driftHoldout,
		"clients": 1, "templates": len(driftTemplates), "joins": "0-1",
		"phases": "closed loop, one client: Server.Exec then Loop.Tick per request, datagen.ApplyDrift every batch_every requests",
	}
}

// driftTemplate is one prepared statement of the mix and how its
// bindings are drawn. Bindings come from small grids over the current
// table sizes, so parameter values repeat the way real traffic's do.
type driftTemplate struct {
	sql  string
	args func(rng *rand.Rand, cat *data.Catalog) []any
}

// idRange draws a clustered id range covering 1/16 or 2/16 of table t:
// zone maps can skip the blocks outside it.
func idRange(rng *rand.Rand, cat *data.Catalog, t string) (int64, int64) {
	slot := int64(cat.Table(t).NumRows() / 16)
	lo := int64(rng.Intn(16)) * slot
	return lo, lo + int64(1+rng.Intn(2))*slot - 1
}

var driftTemplates = []driftTemplate{
	{"SELECT COUNT(*) FROM votes WHERE votes.id BETWEEN ? AND ? AND votes.vote_type = ?",
		func(rng *rand.Rand, cat *data.Catalog) []any {
			lo, hi := idRange(rng, cat, "votes")
			return []any{lo, hi, int64(rng.Intn(5))}
		}},
	{"SELECT COUNT(*) FROM comments WHERE comments.id >= ? AND comments.score <= ?",
		func(rng *rand.Rand, cat *data.Catalog) []any {
			lo, _ := idRange(rng, cat, "comments")
			return []any{lo, int64(rng.Intn(8))}
		}},
	{"SELECT SUM(posts.views) FROM posts WHERE posts.id BETWEEN ? AND ?",
		func(rng *rand.Rand, cat *data.Catalog) []any {
			lo, hi := idRange(rng, cat, "posts")
			return []any{lo, hi}
		}},
	{"SELECT COUNT(*) FROM postHistory WHERE postHistory.kind = ? AND postHistory.id <= ?",
		func(rng *rand.Rand, cat *data.Catalog) []any {
			_, hi := idRange(rng, cat, "postHistory")
			return []any{int64(rng.Intn(6)), hi}
		}},
	{"SELECT COUNT(*) FROM posts, votes WHERE votes.post_id = posts.id AND posts.id BETWEEN ? AND ? AND votes.vote_type = ?",
		func(rng *rand.Rand, cat *data.Catalog) []any {
			lo, hi := idRange(rng, cat, "posts")
			return []any{lo, hi, int64(rng.Intn(5))}
		}},
	{"SELECT COUNT(*) FROM comments WHERE comments.post_id = ? AND comments.score >= ?",
		func(rng *rand.Rand, cat *data.Catalog) []any {
			return []any{int64(rng.Intn(64)), int64(rng.Intn(4))}
		}},
	{"SELECT COUNT(*) FROM users, badges WHERE badges.user_id = users.id AND users.reputation >= ? AND badges.class = ?",
		func(rng *rand.Rand, cat *data.Catalog) []any {
			return []any{[]int64{0, 10, 100, 1000}[rng.Intn(4)], int64(1 + rng.Intn(3))}
		}},
}

// driftEnv is one set-up of the drift workload: a catalog, a histogram
// behind a hot-swap cell, and the benchmark's own prepared templates for
// binding reference queries.
type driftEnv struct {
	seed    int64
	cat     *data.Catalog
	sw      *adapt.Swappable
	o       *opt.Optimizer
	ex      *exec.Executor
	oracle  *exec.Executor
	preps   []*sqlx.Prepared
	holdout []workload.Labeled
	collect time.Duration
	train   time.Duration
}

func newDriftEnv(seed int64) (*driftEnv, error) {
	e := &driftEnv{seed: seed}
	e.cat = datagen.StatsCEB(datagen.Config{Seed: catalogSeed, Scale: driftScale})
	t := time.Now()
	cs := stats.CollectCatalog(e.cat, stats.Options{Seed: catalogSeed})
	e.collect = time.Since(t)
	t = time.Now()
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: e.cat, Stats: cs, Seed: catalogSeed}); err != nil {
		return nil, fmt.Errorf("train histogram: %w", err)
	}
	e.train = time.Since(t)
	e.sw = adapt.NewSwappable(hist)
	e.o = opt.New(e.cat, cost.New(cs), e.sw)
	e.ex = exec.New(e.cat)
	e.oracle = exec.New(e.cat)
	for _, tm := range driftTemplates {
		p, err := sqlx.Prepare(tm.sql, e.cat)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", tm.sql, err)
		}
		e.preps = append(e.preps, p)
	}
	return e, e.relabel(0)
}

// relabel draws and labels a fresh gate holdout for the current data.
func (e *driftEnv) relabel(batch int) error {
	h, err := workload.GenLabeled(e.cat, exec.NewCardCache(e.oracle), workload.Options{
		Seed: e.seed + 1000 + int64(batch), Count: driftHoldout, MaxJoins: 1, MaxPreds: 2,
	})
	e.holdout = h
	return err
}

// newLoop wires the adaptation loop like E15 does (drift detection over
// served q-errors, histogram retraining, the regression gate, a
// probation window), scaled to this workload's long write batches: the
// detector compares windows of 1000 sub-plan q-errors, so it flags
// drift batches rather than noise in the query mix, and a failed
// promotion cools down for half a batch of ticks instead of retraining
// again a few requests later.
func (e *driftEnv) newLoop(host adapt.Host) *adapt.Loop {
	l := adapt.NewLoop(e.sw, host, adapt.NewGate(e.o, e.ex, adapt.GateConfig{}), adapt.Config{
		Seed: catalogSeed,
		Cat:  e.cat,
		Detector: adapt.DetectorConfig{
			Baseline: 1000, Window: 1000, Ratio: 1.15, AbsQ: 24, TripLimit: -1,
		},
		Promote:    guard.BreakerConfig{FailureThreshold: 1, Cooldown: driftBatchEvery / 2, MaxCooldown: 2 * driftBatchEvery},
		MinSamples: 64,
		Probation:  32,
	})
	l.SetHoldout(e.holdout)
	return l
}

// driftTarget serves the drift sequence: the real server, or the traced
// replay of it.
type driftTarget interface {
	exec(ctx context.Context, k int, t int, args []any) (*serve.Result, error)
	tick(ctx context.Context) error
	write(opts datagen.DriftOptions)
	setHoldout(h []workload.Labeled)
}

type driftServer struct {
	e     *driftEnv
	srv   *serve.Server
	stmts []*serve.Stmt
	loop  *adapt.Loop
}

func newDriftServer(e *driftEnv) (*driftServer, error) {
	s := &driftServer{e: e, srv: serve.New(e.cat, e.o, e.ex, serve.Config{})}
	s.loop = e.newLoop(s.srv)
	s.srv.SetObserver(s.loop)
	for _, tm := range driftTemplates {
		st, err := s.srv.Prepare(tm.sql)
		if err != nil {
			return nil, err
		}
		s.stmts = append(s.stmts, st)
	}
	return s, nil
}

func (s *driftServer) exec(ctx context.Context, _ int, t int, args []any) (*serve.Result, error) {
	return s.srv.Exec(ctx, tenants[0], s.stmts[t], args...)
}

func (s *driftServer) tick(ctx context.Context) error {
	_, err := s.loop.Tick(ctx)
	return err
}

func (s *driftServer) write(opts datagen.DriftOptions) { datagen.ApplyDrift(s.e.cat, opts) }

func (s *driftServer) setHoldout(h []workload.Labeled) { s.loop.SetHoldout(h) }

type driftReplay struct {
	e     *driftEnv
	r     *replayer
	loop  *adapt.Loop
	stmts []*sqlx.Prepared
}

// newDriftReplay prepares the statements the way Server.Prepare does,
// inside sqlx.parse spans, and wires an adaptation loop to the replay.
func newDriftReplay(e *driftEnv, tr *tracer) (*driftReplay, error) {
	d := &driftReplay{e: e, r: newReplayer(e.o, e.ex, 0, tr)}
	d.loop = e.newLoop(d.r)
	d.r.obs = d.loop
	for _, tm := range driftTemplates {
		s := tr.begin(spanParse)
		p, err := sqlx.Prepare(tm.sql, e.cat)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		d.stmts = append(d.stmts, p)
	}
	return d, nil
}

func (d *driftReplay) exec(ctx context.Context, k int, t int, args []any) (*serve.Result, error) {
	return d.r.exec(ctx, int32(k), d.stmts[t], args)
}

func (d *driftReplay) tick(ctx context.Context) error {
	s := d.r.tr.begin(spanTick)
	_, err := d.loop.Tick(ctx)
	d.r.tr.end(s)
	return err
}

func (d *driftReplay) write(opts datagen.DriftOptions) {
	s := d.r.tr.begin(spanAppend)
	datagen.ApplyDrift(d.e.cat, opts)
	d.r.tr.end(s)
}

func (d *driftReplay) setHoldout(h []workload.Labeled) { d.loop.SetHoldout(h) }

// driftRun is one pass over the drift sequence.
type driftRun struct {
	recs  []record
	wall  time.Duration // requests, ticks and writes; checks and relabeling excluded
	alloc uint64        // bytes allocated inside wall
	tally tally
}

// drive serves the seeded drift sequence of n requests to target: each
// window of driftBatchEvery requests (a Loop.Tick after each) is timed,
// then checked against reference answers on the data it ran on with the
// clock paused, then a drift batch is appended and the gate holdout
// relabeled. With check unset the answers are not checked here.
func (e *driftEnv) drive(ctx context.Context, n int, target driftTarget, check bool) (*driftRun, error) {
	rng := rand.New(rand.NewSource(e.seed))
	run := &driftRun{recs: make([]record, 0, n)}
	type request struct {
		t    int
		args []any
	}
	for batch := 0; len(run.recs) < n; batch++ {
		if batch > 0 {
			opts := datagen.DriftOptions{
				Seed: e.seed + int64(batch), Fraction: driftFraction,
				ValueSkew: driftValueSkew, DomainShift: driftDomainShift,
			}
			m0 := memSnapshot()
			t := time.Now()
			target.write(opts)
			run.wall += time.Since(t)
			m1 := memSnapshot()
			run.alloc += m1.TotalAlloc - m0.TotalAlloc
			if err := e.relabel(batch); err != nil {
				return nil, err
			}
			target.setHoldout(e.holdout)
		}
		reqs := make([]request, min(driftBatchEvery, n-len(run.recs)))
		for i := range reqs {
			t := rng.Intn(len(driftTemplates))
			reqs[i] = request{t: t, args: driftTemplates[t].args(rng, e.cat)}
		}
		first := len(run.recs)
		m0 := memSnapshot()
		start := time.Now()
		for _, rq := range reqs {
			k := len(run.recs)
			t0 := time.Now()
			res, err := target.exec(ctx, k, rq.t, rq.args)
			rec := record{input: int32(k), st: classify(err), lat: time.Since(t0)}
			if err == nil {
				rec.count, rec.value, rec.work = res.Count, res.Value, res.Latency
			}
			run.recs = append(run.recs, rec)
			if err := target.tick(ctx); err != nil {
				return nil, err
			}
		}
		run.wall += time.Since(start)
		m1 := memSnapshot()
		run.alloc += m1.TotalAlloc - m0.TotalAlloc
		if check {
			run.tally.merge(e.checkWindow(ctx, run.recs[first:], func(i int) (int, []any) {
				return reqs[i].t, reqs[i].args
			}))
		}
	}
	return run, nil
}

// checkWindow compares one window's answers with exec.ReferenceRun over
// exec.CanonicalPlan on the data the window ran on. References are shared
// between identical bindings within the window.
func (e *driftEnv) checkWindow(ctx context.Context, recs []record, req func(i int) (int, []any)) tally {
	var tl tally
	refs := map[string]*answer{}
	for i, r := range recs {
		t, args := req(i)
		q, err := e.preps[t].Bind(args...)
		if err != nil {
			tl.firstErr = err
			tl.add(r, nil, func() string { return driftTemplates[t].sql })
			continue
		}
		key := q.Key()
		ref, ok := refs[key]
		if !ok {
			if cp, err := exec.CanonicalPlan(q); err == nil {
				if res, err := e.oracle.ReferenceRun(ctx, q, cp); err == nil {
					ref = &answer{count: res.Count, value: res.Value}
				} else if tl.firstErr == nil {
					tl.firstErr = fmt.Errorf("reference for %s: %w", q.SQL(), err)
				}
			}
			refs[key] = ref
		}
		tl.add(r, ref, func() string { return fmt.Sprintf("request %d: %s", r.input, q.SQL()) })
	}
	return tl
}

// runDrift measures the drift workload; with trace it replays the same
// sequence through the traced layer calls on a fresh, identical set-up.
func runDrift(ctx context.Context, cfg runConfig) (*outcome, error) {
	var e *driftEnv
	var s *driftServer
	var setups []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		e, s = nil, nil
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = newDriftEnv(cfg.seed); err != nil {
			return nil, err
		}
		if s, err = newDriftServer(e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if err := assertLoad(e.ex); err != nil {
		return nil, err
	}
	n := driftPerSecond * cfg.seconds
	runtime.GC()
	run, err := e.drive(ctx, n, s, true)
	if err != nil {
		return nil, err
	}

	lat := make([]float64, len(run.recs))
	completed := 0
	var work float64
	for i, r := range run.recs {
		lat[i] = ms(r.lat)
		if r.st == statusOK {
			completed++
			work += r.work
		}
	}
	// The tail is the median over windows of driftP99Window requests.
	p99, windows := windowedP99(lat, driftP99Window)
	out := &outcome{tally: run.tally, setup: setups, p99Windows: windows}
	out.e2e = []metric{
		{Name: "lat_p50_ms", Value: quantile(lat, 0.5), Unit: "ms", N: len(lat)},
		{Name: "lat_p99_ms", Value: p99, Unit: "ms", N: len(lat)},
		{Name: "throughput_qps", Value: float64(completed) / run.wall.Seconds(), Unit: "req/s", N: len(lat)},
		{Name: "work_per_query", Value: ratio(work, float64(completed)), Unit: "work", N: completed},
		{Name: "alloc_kb_per_query", Value: ratio(float64(run.alloc)/1024, float64(completed)), Unit: "KiB", N: completed},
	}
	st := s.srv.Stats()
	ls := s.loop.Stats()
	kreq := float64(len(run.recs)) / 1000
	out.layers = []metric{
		{Name: "serve.hit_rate", Value: ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)), Unit: "ratio", N: int(st.Cache.Hits + st.Cache.Misses)},
		{Name: "serve.evictions_per_kreq", Value: ratio(float64(st.Cache.Evictions), kreq), Unit: "1/kreq"},
		{Name: "serve.invalidations_per_kreq", Value: ratio(float64(st.Cache.Invalidations), kreq), Unit: "1/kreq"},
		{Name: "serve.cold_plans_per_kreq", Value: ratio(float64(st.ColdPlans), kreq), Unit: "1/kreq"},
		{Name: "bench.gen_lag_ms.p99", Value: 0, Unit: "ms"},
		{Name: "stats.collect_ms", Value: ms(e.collect), Unit: "ms"},
		{Name: "cardest.train_ms", Value: ms(e.train), Unit: "ms"},
		{Name: "data.rows_final", Value: float64(e.cat.TotalRows()), Unit: "count"},
		{Name: "adapt.rounds", Value: float64(ls.Rounds), Unit: "count"},
		{Name: "adapt.swaps", Value: float64(ls.Swaps), Unit: "count"},
		{Name: "adapt.rollbacks", Value: float64(ls.Rollbacks), Unit: "count"},
		{Name: "adapt.gate_rejects", Value: float64(ls.GateRejects), Unit: "count"},
	}
	if cfg.trace {
		layers, t, err := traceDrift(ctx, cfg, n, run, mean(lat)*1000)
		if err != nil {
			return nil, err
		}
		out.layers = append(out.layers, layers...)
		out.tally.merge(t)
	}
	out.heapMB = heapLiveMB()
	runtime.KeepAlive(s)
	return out, nil
}

// traceDrift replays the drift sequence through the traced layer calls
// and checks every replayed answer against the server's (already
// checked) answer to the same request.
func traceDrift(ctx context.Context, cfg runConfig, n int, served *driftRun, untracedUs float64) ([]metric, tally, error) {
	b, err := newDriftEnv(cfg.seed)
	if err != nil {
		return nil, tally{}, err
	}
	tr := newTracer()
	d, err := newDriftReplay(b, tr)
	if err != nil {
		return nil, tally{}, err
	}
	replayed, err := b.drive(ctx, n, d, false)
	if err != nil {
		return nil, tally{}, err
	}
	var t tally
	for i, r := range replayed.recs {
		s := served.recs[i]
		ref := &answer{count: s.count, value: s.value}
		if s.st != statusOK {
			ref = nil
		}
		t.add(r, ref, func() string { return fmt.Sprintf("replayed request %d", i) })
	}
	layers := d.r.layerMetrics(func(int32) bool { return true }, untracedUs)
	layers = append(layers, execAllocs(ctx, b.ex, d.r.executed))
	if err := tr.write(cfg.spansPath); err != nil {
		return nil, tally{}, err
	}
	return layers, t, nil
}
