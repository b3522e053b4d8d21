package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"time"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/experiments"
	"hbmsim/internal/replacement"
	"hbmsim/internal/report"
	"hbmsim/internal/serve"
	"hbmsim/internal/tracing"
)

// experimentReps is how many times the traced script times the figures
// against their replays.
const experimentReps = 3

// benchGrid is the repository's bench grid (bench_test.go): small enough
// that one figure takes about a second, with plentiful and scarce HBM and
// an uncontended and a saturated channel all represented. One sweep
// worker keeps a figure on one CPU, so nothing queues behind anything.
func benchGrid(seed int64) experiments.Options {
	return experiments.Options{
		SortN:            2000,
		SpGEMMN:          48,
		SpGEMMDensity:    0.10,
		PageBytes:        64,
		Threads:          []int{4, 8, 16, 32},
		HBMSlots:         []int{100, 400},
		RemapMultipliers: []float64{1, 10},
		DynamicT:         10,
		Channels:         1,
		TradeoffThreads:  24,
		TradeoffSlots:    300,
		Seed:             seed,
		Workers:          1,
	}
}

// figurePoints lists a ratio figure's grid cells in the order its sweep
// runs them, with the seeds it gives each configuration: FIFO against
// static Priority (Figure 2) or Dynamic Priority with T = DynamicT*k
// (Figure 4), on the sort (b) or SpGEMM (a) dataset.
func figurePoints(id string, o experiments.Options) ([]point, error) {
	src := serve.WorkloadSpec{PageBytes: o.PageBytes, Seed: o.Seed}
	switch id {
	case "fig2a", "fig4a":
		if o.SpGEMMDensity != 0.10 { // the job service's SpGEMM generator fixes it
			return nil, fmt.Errorf("%s: density %g is not expressible as a job spec", id, o.SpGEMMDensity)
		}
		src.Gen, src.Size = "spgemm", o.SpGEMMN
	case "fig2b", "fig4b":
		src.Gen, src.Size = "sort", o.SortN
	default:
		return nil, fmt.Errorf("no grid for experiment %q", id)
	}
	for _, p := range o.Threads {
		src.Cores = max(src.Cores, p)
	}
	var pts []point
	for pi, p := range o.Threads {
		for ki, k := range o.HBMSlots {
			seed := o.Seed + int64(1000*pi+10*ki)
			base := serve.ConfigSpec{HBMSlots: k, Channels: o.Channels,
				Arbiter: string(arbiter.FIFO), Replacement: string(replacement.LRU), Seed: seed}
			comp := serve.ConfigSpec{HBMSlots: k, Channels: o.Channels,
				Arbiter: string(arbiter.Priority), Replacement: string(replacement.LRU), Seed: seed + 1}
			if id[3] == '2' {
				comp.Permuter = string(arbiter.Static)
			} else {
				comp.Permuter = string(arbiter.Dynamic)
				comp.RemapPeriod = uint64(o.DynamicT * float64(k))
			}
			pts = append(pts,
				point{name: fmt.Sprintf("%s base p=%d k=%d", id, p, k), src: src, cores: p, cfg: base},
				point{name: fmt.Sprintf("%s comp p=%d k=%d", id, p, k), src: src, cores: p, cfg: comp})
		}
	}
	return pts, nil
}

// ratioRows renders the figure's table rows from replayed Results: the
// base makespan over the comparison makespan per (threads, HBM size).
func ratioRows(o experiments.Options, rs *replayStats) [][]string {
	tbl := report.NewTable("")
	for pi, p := range o.Threads {
		row := []any{p}
		for ki := range o.HBMSlots {
			i := 2 * (pi*len(o.HBMSlots) + ki)
			row = append(row, float64(rs.results[i].Makespan)/float64(rs.results[i+1].Makespan))
		}
		tbl.AddRow(row...)
	}
	return tbl.Rows()
}

// figureBench is the paper-figure workload: one operation regenerates
// every figure in figs with experiments.Run, one after the other, as a
// researcher reproducing the paper's plots does. One sweep worker, no
// journal, no observer.
type figureBench struct {
	cfg  config
	opts experiments.Options
	figs []*figure
}

// figure is one paper figure of the workload.
type figure struct {
	id  string
	pts []point
	// ref is the warm-up figure's table: every timed figure must render
	// byte-identical CSV, and verify checks its rows against the spec.
	ref    *report.Table
	refCSV []byte
}

func newFigures(ids []string, cfg config) (bench, error) {
	b := &figureBench{cfg: cfg, opts: benchGrid(cfg.seed)}
	for _, id := range ids {
		f := &figure{id: id}
		var err error
		if f.pts, err = figurePoints(id, b.opts); err != nil {
			return nil, err
		}
		out, err := experiments.Run(id, b.opts)
		if err != nil {
			return nil, err
		}
		f.ref = out.Tables[0]
		if f.refCSV, err = tableCSV(out); err != nil {
			return nil, err
		}
		b.figs = append(b.figs, f)
	}
	return b, nil
}

// points lists every figure's grid cells, figure after figure.
func (b *figureBench) points() []point {
	var pts []point
	for _, f := range b.figs {
		pts = append(pts, f.pts...)
	}
	return pts
}

func tableCSV(out *experiments.Outcome) ([]byte, error) {
	var buf bytes.Buffer
	for _, t := range out.Tables {
		if err := t.WriteCSV(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func (b *figureBench) window(deadline time.Time, heap *heapWatch) (*windowStats, error) {
	w := &windowStats{}
	outs := make([]*experiments.Outcome, len(b.figs))
	errs := make([]error, len(b.figs))
	pr := newProbe()
	t0, cpu0, rt0 := time.Now(), cpuTime(), readRuntime()
	for w.ops == 0 || time.Now().Before(deadline) {
		s := time.Now()
		for i, f := range b.figs {
			outs[i], errs[i] = experiments.Run(f.id, b.opts)
		}
		d := ms(time.Since(s))
		w.ops++
		heap.sample()
		w.addOp(d, pr.run())
		for i, f := range b.figs {
			if errs[i] != nil {
				w.failedOps++
				break
			}
			if got, err := tableCSV(outs[i]); err != nil || !bytes.Equal(got, f.refCSV) {
				w.failedOps++
				break
			}
		}
	}
	w.elapsed, w.cpu, w.rt0, w.rt1 = time.Since(t0), cpuTime()-cpu0, rt0, readRuntime()
	return w, nil
}

// verify replays one repetition's cells of every figure through the
// production kernel, checks each against core.RunReference, and checks
// that each figure's table is exactly the ratios of those Results. It
// also fills in the simulated work the window did.
func (b *figureBench) verify(w *windowStats, out io.Writer) (int, error) {
	failed := w.failedOps
	var refs uint64
	for _, f := range b.figs {
		rs, err := replay(context.Background(), f.pts)
		if err != nil {
			return 0, err
		}
		refs += rs.totals.refs
		w.simTicks += rs.totals.ticks
		if err := checkReference(f.pts, rs); err != nil {
			fmt.Fprintln(out, "verify:", err)
			failed = w.ops
		}
		if !reflect.DeepEqual(ratioRows(b.opts, rs), f.ref.Rows()) {
			fmt.Fprintf(out, "verify: %s table differs from the ratios of the replayed cells\n", f.id)
			failed = w.ops
		}
	}
	w.refs = refs * uint64(w.ops)
	return failed, nil
}

// traced times each layer on the figures' own cells: figures with the
// program's own experiments/sweep spans on, replays of the grids through
// the public calls, the storage probes, and the cells as jobs on a traced
// service (each submitted, then resubmitted and answered from the cache).
func (b *figureBench) traced(t *tracer, w *windowStats, out io.Writer) (map[string]metric, error) {
	ctx, root := t.root()
	m := map[string]metric{}
	pts := b.points()
	var tracedFig, self samples
	var rs *replayStats
	for r := 0; r < experimentReps; r++ {
		s := time.Now()
		for _, f := range b.figs {
			ectx, sp := tracing.StartSpan(ctx, "bench.experiments.run")
			o := b.opts
			o.Ctx = ectx
			_, err := experiments.Run(f.id, o)
			sp.EndErr(err)
			if err != nil {
				return nil, err
			}
		}
		fig := time.Since(s)
		tracedFig.addDur(fig)
		var err error
		if rs, err = replay(ctx, pts); err != nil {
			return nil, err
		}
		// The figures and their replay run back to back, so host drift
		// between the timed window and this script does not enter.
		self.addDur(fig - rs.busy)
	}
	coreMetrics(m, rs)
	m["experiments.self_ms"] = metric{self.median(), "ms"}
	ps, err := probeLayers(ctx, filepath.Join(b.cfg.dir, "probe"), pts, rs)
	if err != nil {
		return nil, err
	}
	probeMetrics(m, ps)

	var specs []serve.Spec
	for _, p := range pts {
		specs = append(specs, pointJob(p))
	}
	recs, err := serveScript(ctx, t, filepath.Join(b.cfg.dir, "traced"), out, func(c, n int, recs []jobRec) (jobOp, bool) {
		mine := (len(specs) - c + 1) / 2 // client c takes every other cell
		switch {
		case n < mine:
			return jobOp{kind: "sim", spec: specs[2*n+c], hitOf: -1}, true
		case n < 2*mine:
			return jobOp{kind: "hit", spec: recs[n-mine].op.spec, hitOf: n - mine}, true
		}
		return jobOp{}, false
	})
	if err != nil {
		return nil, err
	}
	root.End()
	if err := serveMetrics(m, t, recs, ps, filepath.Join(b.cfg.dir, "traced")); err != nil {
		return nil, err
	}
	printOverhead(out, "the figures", tracedFig, w.op)
	return m, nil
}

func printOverhead(out io.Writer, what string, traced, untraced samples) {
	fmt.Fprintf(out, "tracing overhead on %s: traced median %.4g ms - untraced median %.4g ms = %.4g ms\n",
		what, traced.median(), untraced.median(), traced.median()-untraced.median())
}

func (b *figureBench) close() error { return nil }
