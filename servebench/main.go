// Command servebench is the repository's serving benchmark. It drives
// serve.Server from one process with at most nproc client goroutines and
// a serial executor, over three workloads that load different layers:
//
//   - hot-repeat: a working set replayed round-robin from the plan cache;
//   - cold-learned: a stream of distinct joins, each planned with a
//     trained BayesNet estimator;
//   - drift-write: prepared statements beside appends, with the
//     adaptation loop retraining, gating and hot-swapping the estimator.
//
// It prints provenance, every metric by name and unit, and as its last
// line one JSON object with correct/attempted/failed/metrics. Served
// answers are checked against exec.ReferenceRun. With --trace 1 it also
// replays the workload's requests through the layers' public functions
// with a span around every call, reports per-layer metrics and writes the
// spans as JSON lines.
//
// Run it from the repository root:
//
//	bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"lqo/internal/exec"
	"lqo/internal/serve"
)

// clients is the number of concurrent client goroutines of the read
// workloads; the drift workload uses one.
const clients = 2

// catalogSeed generates every workload's database and seeds the
// statistics, estimator training and adaptation loop built on it: the
// system under test is the same on every run. --seed draws the workload:
// queries, bindings, drift batches and gate holdouts. A different
// database per seed moved the read workloads' tails more than the
// machine did (cold-learned's lat_p99_ms spread 0.27 over ten seeds).
const catalogSeed = 1

// tenants names one tenant per client goroutine.
var tenants = [clients]string{"client0", "client1"}

// The workloads. Rates and sizes are fixed here, never derived from the
// machine, so every commit is measured on the same inputs.
var (
	hotRepeat = readSpec{
		name: "hot-repeat", scale: 0.05, estimator: "histogram",
		distinct: 2048, minJoins: 0, maxJoins: 2, cacheSize: 4096, openRate: 6000,
	}
	coldLearned = readSpec{
		name: "cold-learned", scale: 0.05, estimator: "bayesnet",
		stream: 40000, warmup: 256, minJoins: 2, maxJoins: 2, openRate: 1500,
	}
)

type runConfig struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	spansPath string
}

// outcome is everything one run measured.
type outcome struct {
	tally
	setup      []float64 // seconds per set-up repeat
	e2e        []metric  // end-to-end metrics except setup_s, success_rate and heap_live_mb
	layers     []metric  // per-layer: the measured run's counters, plus the span metrics when traced
	heapMB     float64
	p99Windows int     // windows behind lat_p99_ms
	schedP50   float64 // ms: open-loop median timed from the scheduled send
	schedP99   float64 // ms: open-loop p99 timed from the scheduled send
	genLagTail float64 // ms: mean send lag over the last tenth of the open-loop schedule
}

// setupRepeats is how many times a run sets up; setup_s is their median.
// A traced run reports no setup_s and sets up once.
func setupRepeats(cfg runConfig) int {
	if cfg.trace {
		return 1
	}
	return 5
}

// assertLoad enforces the benchmark's load model: one process, at most
// nproc client goroutines, serial operators.
func assertLoad(ex *exec.Executor) error {
	if clients > runtime.NumCPU() {
		return fmt.Errorf("load model: %d clients exceed nproc=%d", clients, runtime.NumCPU())
	}
	if ex.Workers != 0 {
		return fmt.Errorf("load model: executor Workers=%d, want 0 (serial operators)", ex.Workers)
	}
	return nil
}

func statsDelta(before, after serve.Stats) serve.Stats {
	return serve.Stats{
		Cache: serve.CacheStats{
			Hits:          after.Cache.Hits - before.Cache.Hits,
			Misses:        after.Cache.Misses - before.Cache.Misses,
			Invalidations: after.Cache.Invalidations - before.Cache.Invalidations,
			Evictions:     after.Cache.Evictions - before.Cache.Evictions,
		},
		ColdPlans: after.ColdPlans - before.ColdPlans,
		Rejected:  after.Rejected - before.Rejected,
		Shed:      after.Shed - before.Shed,
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var cfg runConfig
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "hot-repeat, cold-learned or drift-write")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed: queries, bindings, drift batches and holdouts derive from it")
	fl.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fl.IntVar(&trace, "trace", 0, "1 = also run the traced replay and report per-layer metrics")
	fl.StringVar(&cfg.spansPath, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if cfg.spansPath == "" {
		cfg.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}

	ctx := context.Background()
	var out *outcome
	var params map[string]any
	var err error
	switch cfg.workload {
	case hotRepeat.name:
		params = hotRepeat.params()
		out, err = runRead(ctx, hotRepeat, cfg)
	case coldLearned.name:
		params = coldLearned.params()
		out, err = runRead(ctx, coldLearned, cfg)
	case "drift-write":
		params = driftParams(cfg.seconds)
		out, err = runDrift(ctx, cfg)
	default:
		return fmt.Errorf("unknown --workload %q (want hot-repeat, cold-learned or drift-write)", cfg.workload)
	}
	if err != nil {
		return err
	}
	return report(stdout, cfg, params, out)
}

// report prints provenance and every metric, then the result line.
func report(w io.Writer, cfg runConfig, params map[string]any, out *outcome) error {
	e2e := append([]metric{
		{Name: "setup_s", Value: quantile(out.setup, 0.5), Unit: "s", N: len(out.setup)},
		{Name: "success_rate", Value: 1 - ratio(float64(out.failed), float64(out.attempted)), Unit: "ratio", N: out.attempted},
	}, out.e2e...)
	e2e = append(e2e, metric{Name: "heap_live_mb", Value: out.heapMB, Unit: "MiB"})

	// Generator health: sends still later than the reported p99 at the
	// end of the open-loop schedule mean a backlog built up, so the fixed
	// rate was not sustained and the latencies understate the queue.
	behind := false
	for _, m := range out.e2e {
		if m.Name == "lat_p99_ms" && out.genLagTail > m.Value {
			behind = true
			fmt.Fprintf(os.Stderr, "servebench: WARNING: generator behind schedule: mean send lag %.3f ms over the last tenth of the schedule exceeds lat_p99_ms=%.3f\n", out.genLagTail, m.Value)
		}
	}

	samples := map[string]int{}
	for _, m := range append(e2e, out.layers...) {
		if m.N > 0 {
			samples[m.Name] = m.N
		}
	}
	prov := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "cpu": cpuModel(),
		"commit": commit(), "source_sha256": sourceDigest(),
		"params": params, "samples": samples,
		"executor_workers": 0, "client_goroutines": params["clients"],
		"lat_p99_windows": out.p99Windows, "lat_p50_from_schedule_ms": out.schedP50, "lat_p99_from_schedule_ms": out.schedP99, "gen_lag_ms_tail_mean": out.genLagTail, "generator_behind": behind,
		"attempted": out.attempted, "errors": out.errors, "refused": out.refused, "wrong_answers": out.wrong,
	}
	if cfg.trace {
		prov["spans"] = cfg.spansPath
	} else {
		counters := map[string]float64{}
		for _, m := range out.layers {
			counters[m.Name] = m.Value
		}
		prov["layer_counters"] = counters
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", pj)
	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "servebench: first reference error: %v\n", out.firstErr)
	}

	shown := e2e
	if cfg.trace {
		shown = out.layers
	}
	metrics := map[string]any{}
	for _, m := range shown {
		fmt.Fprintf(w, "metric %-32s %14.6f %-7s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	res, err := json.Marshal(map[string]any{
		"correct":   out.wrong == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the measured code where no VCS revision exists.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
