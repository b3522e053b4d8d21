package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/core"
	"hbmsim/internal/experiments"
	"hbmsim/internal/replacement"
	"hbmsim/internal/serve"
	"hbmsim/internal/sweep"
	"hbmsim/internal/tracing"
)

const (
	// mixClients closed-loop HTTP clients share the service; with two
	// workers, no job waits for a worker.
	mixClients = 2
	// minCycles is the job script every client completes however slow the
	// host: sim_ticks sums its cache misses, so it repeats exactly.
	minCycles = 3
	// traceCycles is the traced script's fixed length per client.
	traceCycles = 3
	// checkpointEvery makes a sort sim job (about 60k ticks) write a few
	// snapshots.
	checkpointEvery = 16384
)

// serveBench is the job-service workload: two clients, each repeating a
// cycle of a sim job, a 4-point sweep job and an identical resubmit of
// the sim job it has just seen finish, over HTTP against an in-process
// service with a result cache.
type serveBench struct {
	cfg config
	svc *service
	// recs are the timed window's requests, per client.
	recs [][]jobRec
}

func newServeBench(cfg config) (bench, error) {
	svc, err := startService(cfg.dir, nil)
	if err != nil {
		return nil, err
	}
	b := &serveBench{cfg: cfg, svc: svc}
	// Warm-up: one cycle per client on inputs the window never uses.
	recs := svc.runClients(context.Background(), mixClients, func(c, n int, recs []jobRec) (jobOp, bool) {
		return b.mixOp(c, -1, n, recs), n < 3
	})
	for _, rs := range recs {
		for _, r := range rs {
			if r.err != nil {
				svc.close()
				return nil, fmt.Errorf("warm-up job: %w", r.err)
			}
		}
	}
	return b, nil
}

// wlSeed gives every (client, cycle) its own inputs, so every sim and
// sweep job is a cache miss the first time it is submitted.
func (b *serveBench) wlSeed(c, cycle int) int64 {
	return b.cfg.seed*1_000_000 + int64(c)*100_000 + int64(cycle) + 10
}

// simSpec is a client's sim job of one cycle: sort, p=16, N=2000,
// k=256, static Priority, checkpointing a few times.
func (b *serveBench) simSpec(c, cycle int) serve.Spec {
	s := b.wlSeed(c, cycle)
	return serve.Spec{
		Kind:     serve.KindSim,
		Workload: &serve.WorkloadSpec{Gen: "sort", Cores: 16, Size: 2000, PageBytes: 64, Seed: s},
		Config: &serve.ConfigSpec{HBMSlots: 256, Arbiter: string(arbiter.Priority),
			Permuter: string(arbiter.Static), Replacement: string(replacement.LRU), Seed: s},
		CheckpointEveryTicks: checkpointEvery,
	}
}

// sweepSpec is a client's journaled sweep job of one cycle: SpGEMM,
// p=16, N=48, FIFO and Priority at a scarce and a plentiful HBM size.
func (b *serveBench) sweepSpec(c, cycle int) serve.Spec {
	s := b.wlSeed(c, cycle)
	spec := serve.Spec{
		Kind:     serve.KindSweep,
		Workload: &serve.WorkloadSpec{Gen: "spgemm", Cores: 16, Size: 48, PageBytes: 64, Seed: s},
		Workers:  1,
	}
	for _, k := range []int{100, 400} {
		spec.Points = append(spec.Points,
			serve.Point{Name: fmt.Sprintf("fifo k=%d", k), Config: serve.ConfigSpec{HBMSlots: k,
				Arbiter: string(arbiter.FIFO), Replacement: string(replacement.LRU), Seed: s}},
			serve.Point{Name: fmt.Sprintf("priority k=%d", k), Config: serve.ConfigSpec{HBMSlots: k,
				Arbiter: string(arbiter.Priority), Permuter: string(arbiter.Static),
				Replacement: string(replacement.LRU), Seed: s}})
	}
	return spec
}

// mixOp is request n of a client's cycle: sim miss, sweep miss, resubmit
// of the sim job. recs are the client's records so far.
func (b *serveBench) mixOp(c, cycle, n int, recs []jobRec) jobOp {
	switch n % 3 {
	case 0:
		return jobOp{kind: "sim", spec: b.simSpec(c, cycle), hitOf: -1}
	case 1:
		return jobOp{kind: "sweep", spec: b.sweepSpec(c, cycle), hitOf: -1}
	}
	return jobOp{kind: "hit", spec: recs[len(recs)-2].op.spec, hitOf: len(recs) - 2}
}

func (b *serveBench) window(deadline time.Time, heap *heapWatch) (*windowStats, error) {
	w := &windowStats{extra: map[string]*samples{"hit_p50_ms": {}, "sweep_job_p50_ms": {}}}
	probes := make([]*probe, mixClients)
	paces := make([]samples, mixClients)
	for c := range probes {
		probes[c] = newProbe()
	}
	t0, cpu0, rt0 := time.Now(), cpuTime(), readRuntime()
	recs := b.svc.runClients(context.Background(), mixClients, func(c, n int, recs []jobRec) (jobOp, bool) {
		heap.sample()
		if n > 0 && n%3 == 0 { // a cycle just finished
			paces[c].add(probes[c].run())
		}
		if n%3 == 0 && n/3 >= minCycles && time.Now().After(deadline) {
			return jobOp{}, false
		}
		return b.mixOp(c, n/3, n, recs), true
	})
	w.cpu, w.rt0, w.rt1 = cpuTime()-cpu0, rt0, readRuntime()
	var last time.Time
	for c, rs := range recs {
		for n, r := range rs {
			w.ops++
			if r.err != nil {
				w.failedOps++
				continue
			}
			if r.end.After(last) {
				last = r.end
			}
			p := r.view.Result
			switch r.op.kind {
			case "sim":
				// Every cycle the client finished is followed by a probe.
				w.addOp(ms(r.done), paces[c][n/3])
				w.refs += p.Sim.TotalRefs
				if n/3 < minCycles {
					w.simTicks += uint64(p.Sim.Makespan)
				}
			case "sweep":
				w.extra["sweep_job_p50_ms"].addDur(r.done)
				for _, row := range p.Rows {
					if row.Result == nil {
						continue
					}
					w.refs += row.Result.TotalRefs
					if n/3 < minCycles {
						w.simTicks += uint64(row.Result.Makespan)
					}
				}
			case "hit":
				w.extra["hit_p50_ms"].addDur(r.done)
			}
		}
	}
	w.elapsed = last.Sub(t0)
	b.recs = recs
	return w, nil
}

// verify checks every cache miss against a direct core.Run (sim jobs) or
// sweep.Run (sweep jobs) of the same spec, and every resubmit for a
// cache hit whose payload is byte-identical to its original's.
func (b *serveBench) verify(w *windowStats, out io.Writer) (int, error) {
	failed, err := verifyJobs(b.recs, out)
	return failed + w.failedOps, err
}

// verifyJobs checks a set of client records; misses are recomputed on
// one goroutine per CPU the service used.
func verifyJobs(recs [][]jobRec, out io.Writer) (int, error) {
	type task struct{ c, n int }
	var tasks []task
	failed := 0
	for c, rs := range recs {
		for n, r := range rs {
			switch {
			case r.err != nil:
			case r.op.kind == "hit":
				if !r.view.CacheHit || !bytes.Equal(r.payload, rs[r.op.hitOf].payload) {
					fmt.Fprintf(out, "verify: resubmit job %d was not answered with its original's payload from the cache\n", r.id)
					failed++
				}
			default:
				tasks = append(tasks, task{c, n})
			}
		}
	}
	var (
		mu   sync.Mutex
		next int
		ferr error
		wg   sync.WaitGroup
	)
	for g := 0; g < mixClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(tasks) || ferr != nil {
					mu.Unlock()
					return
				}
				tk := tasks[next]
				next++
				mu.Unlock()
				r := recs[tk.c][tk.n]
				want, err := directPayload(r.op.spec)
				mu.Lock()
				switch {
				case err != nil:
					ferr = err
				case r.view.CacheHit || !bytes.Equal(want, r.payload):
					fmt.Fprintf(out, "verify: %s job %d differs from a direct run of its spec\n", r.op.kind, r.id)
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed, ferr
}

// directPayload computes a sim or sweep spec's payload without the
// service, rendered as the service renders it.
func directPayload(spec serve.Spec) ([]byte, error) {
	wl, err := spec.Workload.Build()
	if err != nil {
		return nil, err
	}
	var p serve.Payload
	switch spec.Kind {
	case serve.KindSim:
		cfg, err := spec.Config.Config()
		if err != nil {
			return nil, err
		}
		if p.Sim, err = core.Run(cfg, wl.Raw()); err != nil {
			return nil, err
		}
	case serve.KindSweep:
		jobs := make([]sweep.Job, len(spec.Points))
		for i := range spec.Points {
			cfg, err := spec.Points[i].Config.Config()
			if err != nil {
				return nil, err
			}
			jobs[i] = sweep.Job{Name: spec.PointName(i), Config: cfg, Workload: wl}
		}
		for _, r := range sweep.Run(jobs, 1) {
			row := serve.RowResult{Name: r.Job.Name, Result: r.Result}
			if r.Err != nil {
				row.Error = r.Err.Error()
			}
			p.Rows = append(p.Rows, row)
		}
	default:
		return nil, fmt.Errorf("no direct computation for %s jobs", spec.Kind)
	}
	return json.Marshal(&p)
}

// points lists the simulations of the first cycles of every client: each
// sim job, and each row of each sweep job.
func (b *serveBench) points(cycles int) []point {
	var pts []point
	for c := 0; c < mixClients; c++ {
		for cycle := 0; cycle < cycles; cycle++ {
			sim := b.simSpec(c, cycle)
			pts = append(pts, point{name: fmt.Sprintf("sim c=%d cycle=%d", c, cycle),
				src: *sim.Workload, cores: sim.Workload.Cores, cfg: *sim.Config})
			sw := b.sweepSpec(c, cycle)
			for i, pt := range sw.Points {
				pts = append(pts, point{name: fmt.Sprintf("sweep c=%d cycle=%d %s", c, cycle, sw.PointName(i)),
					src: *sw.Workload, cores: sw.Workload.Cores, cfg: pt.Config})
			}
		}
	}
	return pts
}

// traced times each layer on the mix's own inputs: a replay and the
// storage probes over the first cycles' simulations, Figure 2b on the
// bench grid for the experiments layer, and the mix's first cycles on a
// traced service.
func (b *serveBench) traced(t *tracer, w *windowStats, out io.Writer) (map[string]metric, error) {
	ctx, root := t.root()
	m := map[string]metric{}
	pts := b.points(traceCycles)
	rs, err := replay(ctx, pts)
	if err != nil {
		return nil, err
	}
	coreMetrics(m, rs)
	ps, err := probeLayers(ctx, filepath.Join(b.cfg.dir, "probe"), pts, rs)
	if err != nil {
		return nil, err
	}
	probeMetrics(m, ps)

	o := benchGrid(b.cfg.seed)
	figPts, err := figurePoints("fig2b", o)
	if err != nil {
		return nil, err
	}
	var self samples
	for r := 0; r < experimentReps; r++ {
		s := time.Now()
		if _, err := experiments.Run("fig2b", o); err != nil {
			return nil, err
		}
		fig := time.Since(s)
		rctx, sp := tracing.StartSpan(ctx, "bench.experiments.replay")
		frs, err := replay(rctx, figPts)
		sp.EndErr(err)
		if err != nil {
			return nil, err
		}
		self.addDur(fig - frs.busy)
	}
	m["experiments.self_ms"] = metric{self.median(), "ms"}

	dir := filepath.Join(b.cfg.dir, "traced")
	recs, err := serveScript(ctx, t, dir, out, func(c, n int, recs []jobRec) (jobOp, bool) {
		return b.mixOp(c, n/3, n, recs), n < 3*traceCycles
	})
	root.End()
	if err != nil {
		return nil, err
	}
	if err := serveMetrics(m, t, recs, ps, dir); err != nil {
		return nil, err
	}
	var tracedSim samples
	for _, rs := range recs {
		for _, r := range rs {
			if r.op.kind == "sim" {
				tracedSim.addDur(r.done)
			}
		}
	}
	printOverhead(out, "sim jobs", tracedSim, w.op)
	return m, nil
}

func (b *serveBench) close() error { return b.svc.close() }
