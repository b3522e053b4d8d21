// Command perfbench is hbmsim's end-to-end benchmark. One invocation runs
// one workload in its own process, times the user-facing path from the
// outside, checks every output against an independent computation, and
// prints one JSON object as the last line of standard output:
//
//	go run . --workload figures --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 the same timed window runs first and is followed by a fixed
// traced script whose per-layer metrics replace them, and a Perfetto
// trace of that script is written. README.md explains the workloads,
// the metrics and how each layer metric maps to an end-to-end one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart approximates process start for setup_s: package
// initialisation runs before main and after the runtime is up.
var processStart = time.Now()

// setupRounds is how often a run sets its workload up from scratch;
// setup_s is the median, so one or two slow rounds do not move it.
const setupRounds = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// endToEnd keeps the end-to-end metrics of a traced run, whose line
	// carries the per-layer ones.
	endToEnd map[string]metric
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir receives the run's state directories and the Perfetto file.
	dir string
}

// bench is one workload. A value is one set-up instance: constructing it
// is the set-up (state directories, services, pre-generated inputs and a
// warm-up operation); close releases everything it started.
type bench interface {
	// window runs the closed loop until the deadline (and at least the
	// workload's minimum script) and returns what it observed.
	window(deadline time.Time, heap *heapWatch) (*windowStats, error)
	// verify re-computes every output of the window independently, outside
	// all timing, and returns how many operations failed their checks.
	verify(w *windowStats, out io.Writer) (failed int, err error)
	// traced runs the fixed traced script and returns per-layer metrics.
	traced(t *tracer, w *windowStats, out io.Writer) (map[string]metric, error)
	close() error
}

// windowStats is what a timed window observed.
type windowStats struct {
	// ops is the number of operations attempted; failedOps those that
	// returned an error or a payload differing from its reference.
	ops, failedOps int
	// op holds the latency of each primary operation (a pair of figures,
	// or a cache-miss sim job) in ms. pace holds the host-speed probe that
	// followed each one, and opAdj each latency adjusted by its probe.
	op, pace, opAdj samples
	// refs counts simulated page references served by the window's
	// operations, and simTicks sums the simulated makespans of the
	// workload's fixed reference inputs (both figures, or the minimum job
	// script). The figures' verify fills both in from their replay.
	refs, simTicks uint64
	elapsed        time.Duration
	cpu            time.Duration
	rt0, rt1       runtimeSample
	// extra holds workload-specific timing diagnostics (hit latency,
	// sweep-job latency, ...), printed but not gated.
	extra map[string]*samples
}

// addOp records one primary operation's latency and the probe taken
// right after it, both in ms.
func (w *windowStats) addOp(opMs, probeMs float64) {
	w.op.add(opMs)
	w.pace.add(probeMs)
	w.opAdj.add(opMs * refProbeMs / probeMs)
}

var workloads = map[string]func(cfg config) (bench, error){
	"figures":     func(cfg config) (bench, error) { return newFigures([]string{"fig2b", "fig4a"}, cfg) },
	"serve-mixed": newServeBench,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced per-layer script")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/runs", "directory for state, caches and trace files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark invocation and returns its result line.
// Diagnostics go to out.
func run(cfg config, out io.Writer) (*result, error) {
	// The job service logs every job; keep its records off the terminal so
	// the last output line stays the result.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	newBench, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", cfg.workload, workloadNames())
	}
	dir, err := filepath.Abs(filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	var setup samples
	var b bench
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		sub := cfg
		sub.dir = filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if b, err = newBench(sub); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
		}
		setup.add(time.Since(t0).Seconds())
	}
	defer b.close()

	canaryBefore := canary()
	var heap heapWatch
	w, err := b.window(time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), &heap)
	if err != nil {
		return nil, err
	}
	canaryAfter := canary()
	rss := peakRSSMB()

	failed, err := b.verify(w, out)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: w.ops, Failed: failed}
	res.Correct = failed == 0 && w.ops > 0
	done := float64(w.ops-failed) / float64(w.ops)
	opsPerS := float64(w.ops) / w.elapsed.Seconds()
	refsPerCPUS := float64(w.refs) / w.cpu.Seconds()
	// speed is the host's speed during the window relative to the
	// reference: the factor the probe-by-probe adjustment moved the median
	// operation by. The throughput metrics are scaled by it too, so host
	// drift between runs cancels out of all three.
	speed := w.opAdj.median() / w.op.median()

	fmt.Fprintf(out, "workload %s seed %d: %d operations in %.2fs, %d failed output checks\n",
		cfg.workload, cfg.seed, w.ops, w.elapsed.Seconds(), failed)
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, %s; canary before %s, after %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		canaryBefore.describe("ms"), canaryAfter.describe("ms"))
	fmt.Fprintf(out, "setup_s: %s\n", setup.describe("s"))
	fmt.Fprintf(out, "op_p50_ms (wall): %s\n", w.op.describe("ms"))
	fmt.Fprintf(out, "probe_ms: %s; host speed %.4g of the reference\n", w.pace.describe("ms"), speed)
	fmt.Fprintf(out, "ops_per_s (wall): %.4g 1/s; refs_per_cpu_s: %.4g refs/s\n", opsPerS, refsPerCPUS)
	for _, name := range sortedKeys(w.extra) {
		s := *w.extra[name]
		fmt.Fprintf(out, "%s: %s", name, s.describe("ms"))
		if p90, beyond := s.percentile(0.9); beyond >= 10 {
			fmt.Fprintf(out, "; p90 %.4g ms (%d samples beyond)", p90, beyond)
		} else {
			fmt.Fprintf(out, "; p90 not reported (%d samples beyond it, 10 needed)", beyond)
		}
		fmt.Fprintln(out)
	}
	if p90, beyond := w.op.percentile(0.9); beyond >= 10 {
		fmt.Fprintf(out, "op_p90_ms: %.4g ms (%d samples beyond)\n", p90, beyond)
	}

	res.endToEnd = map[string]metric{
		"setup_s":            {setup.median(), "s"},
		"op_p50_adj_ms":      {w.opAdj.median(), "ms"},
		"ops_per_adj_s":      {opsPerS / speed, "1/s"},
		"refs_per_adj_cpu_s": {refsPerCPUS / speed, "refs/s"},
		"sim_ticks":          {float64(w.simTicks), "ticks"},
		"peak_rss_mb":        {rss, "MB"},
		"done_ratio":         {done, "ratio"},
	}
	if !cfg.trace {
		res.Metrics = res.endToEnd
		return res, checkFinite(res.Metrics)
	}

	tr := newTracer()
	layer, err := b.traced(tr, w, out)
	if err != nil {
		return nil, err
	}
	ops := float64(w.ops)
	cpuDelta := w.rt1.totalCPU - w.rt0.totalCPU
	layer["host.gc_cycles"] = metric{float64(w.rt1.gcCycles - w.rt0.gcCycles), "count"}
	layer["host.gc_cpu_share"] = metric{(w.rt1.gcCPU - w.rt0.gcCPU) / cpuDelta, "ratio"}
	layer["host.alloc_mb_per_op"] = metric{float64(w.rt1.allocB-w.rt0.allocB) / ops / (1 << 20), "MB"}
	layer["host.heap_peak_mb"] = metric{float64(heap.peak.Load()) / (1 << 20), "MB"}
	layer["host.canary_ms"] = metric{append(canaryBefore, canaryAfter...).median(), "ms"}
	tr.printSelfTimes(out)
	path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("%s-%d.perfetto.json", cfg.workload, cfg.seed))
	if err := tr.writePerfetto(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfetto trace: %s\n", path)
	res.Metrics = layer
	return res, checkFinite(res.Metrics)
}

// checkFinite rejects a metric that could not be measured: JSON has no
// NaN, and a missing sample set must fail the run, not print a guess.
func checkFinite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no finite value", name)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs from its reference")
