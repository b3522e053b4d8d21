package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/resultcache"
	"hbmsim/internal/serve"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
	"hbmsim/internal/tracing"
)

// point is one simulation input: the first cores traces of the workload
// src generates, under cfg. Every workload reduces to a list of points
// (a figure's grid cells, a job mix's sim jobs and sweep rows), and the
// traced script pushes the same points through every layer.
type point struct {
	name  string
	src   serve.WorkloadSpec
	cores int
	cfg   serve.ConfigSpec
}

// coreTotals sums the tick kernel's exact counters over a set of runs.
type coreTotals struct {
	steps, ffTicks, ticks, refs, hits, misses, fetches, evictions, remaps, channelSlots uint64
}

func (c *coreTotals) add(sim *core.Sim, res *core.Result, channels int) {
	c.ffTicks += sim.FastForwardedTicks()
	c.ticks += uint64(res.Makespan)
	c.refs += res.TotalRefs
	c.hits += res.Hits
	c.misses += res.Misses
	c.fetches += res.Fetches
	c.evictions += res.Evictions
	c.remaps += res.Remaps
	c.channelSlots += uint64(channels) * uint64(res.Makespan)
}

// replayStats is one replay of a point list.
type replayStats struct {
	results []*core.Result
	inputs  []*trace.Workload
	totals  coreTotals
	// srcRefs and srcPages describe the generated source workloads.
	srcRefs, srcPages uint64
	// Per-call times in ms, and the replay's total workloads+core time.
	build, newSim, step samples
	busy                time.Duration
}

// replay runs every point through the calls experiments.Run and the job
// service make under the hood: generator → Workload.Subset → core.New →
// Sim.Step loop → Sim.Result. Points sharing a source workload share one
// generator call, as a figure's grid cells do. Spans are recorded when
// ctx carries one.
func replay(ctx context.Context, pts []point) (*replayStats, error) {
	rs := &replayStats{}
	built := map[serve.WorkloadSpec]*trace.Workload{}
	for _, p := range pts {
		wl, ok := built[p.src]
		if !ok {
			_, sp := tracing.StartSpan(ctx, "bench.workloads.generate")
			t0 := time.Now()
			var err error
			wl, err = p.src.Build()
			d := time.Since(t0)
			sp.EndErr(err)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			rs.build.addDur(d)
			rs.busy += d
			rs.srcRefs += wl.TotalRefs()
			rs.srcPages += uint64(wl.UniquePages())
			built[p.src] = wl
		}
		cfg, err := p.cfg.Config()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		t0 := time.Now()
		_, sp := tracing.StartSpan(ctx, "bench.workloads.subset")
		in := wl.Subset(p.cores)
		sp.End()
		_, sp = tracing.StartSpan(ctx, "bench.core.new")
		t1 := time.Now()
		sim, err := core.New(cfg, in.Raw())
		rs.newSim.addDur(time.Since(t1))
		sp.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		_, sp = tracing.StartSpan(ctx, "bench.core.step")
		t1 = time.Now()
		var steps uint64
		for sim.Step() {
			steps++
		}
		rs.step.addDur(time.Since(t1))
		sp.SetAttrUint("steps", steps)
		sp.End()
		_, sp = tracing.StartSpan(ctx, "bench.core.result")
		res := sim.Result()
		sp.End()
		rs.busy += time.Since(t0)
		if res.Truncated {
			return nil, fmt.Errorf("%s: simulation truncated", p.name)
		}
		rs.totals.steps += steps + 1 // the final Step that returned false
		rs.totals.add(sim, res, cfg.Channels)
		rs.results = append(rs.results, res)
		rs.inputs = append(rs.inputs, in)
	}
	return rs, nil
}

// checkReference re-runs every replayed point through core.RunReference,
// the executable specification, and compares the Results field by field.
func checkReference(pts []point, rs *replayStats) error {
	for i, p := range pts {
		cfg, err := p.cfg.Config()
		if err != nil {
			return err
		}
		want, err := core.RunReference(cfg, rs.inputs[i].Raw())
		if err != nil {
			return fmt.Errorf("%s: reference: %w", p.name, err)
		}
		if !reflect.DeepEqual(rs.results[i], want) {
			return fmt.Errorf("%s: kernel Result differs from RunReference: %w", p.name, errMismatch)
		}
	}
	return nil
}

// probeStats is what the storage-layer probes measured.
type probeStats struct {
	checkpoint, resume, journal, cachePut, cacheGet samples
	snapBytes, snapWrites, journalBytes             uint64
}

// probeLayers pushes every replayed point through the layers that store
// results: a Sim.Checkpoint at half the makespan and core.Resume from it
// (the resumed run must finish with the identical Result), a
// sweep.Journal.Record of the row, and a resultcache Put and Get of the
// Result under its fingerprint (the bytes must come back unchanged).
func probeLayers(ctx context.Context, dir string, pts []point, rs *replayStats) (*probeStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jnlPath := filepath.Join(dir, "probe.jnl")
	jnl, err := sweep.OpenJournal(jnlPath)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	cache, err := resultcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	ps := &probeStats{}
	for i, p := range pts {
		cfg, err := p.cfg.Config()
		if err != nil {
			return nil, err
		}
		traces := rs.inputs[i].Raw()
		want := rs.results[i]

		sim, err := core.New(cfg, traces)
		if err != nil {
			return nil, err
		}
		for half := want.Makespan / 2; sim.Tick() < half && sim.Step(); {
		}
		var buf bytes.Buffer
		_, sp := tracing.StartSpan(ctx, "bench.snap.checkpoint")
		t0 := time.Now()
		err = sim.Checkpoint(&buf)
		ps.checkpoint.addDur(time.Since(t0))
		sp.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("%s: checkpoint: %w", p.name, err)
		}
		ps.snapBytes += uint64(buf.Len())
		ps.snapWrites++
		_, sp = tracing.StartSpan(ctx, "bench.snap.resume")
		t0 = time.Now()
		resumed, err := core.Resume(bytes.NewReader(buf.Bytes()), cfg, traces)
		ps.resume.addDur(time.Since(t0))
		sp.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("%s: resume: %w", p.name, err)
		}
		for resumed.Step() {
		}
		if !reflect.DeepEqual(resumed.Result(), want) {
			return nil, fmt.Errorf("%s: resumed run differs from the uninterrupted one: %w", p.name, errMismatch)
		}

		job := sweep.Job{Name: p.name, Config: cfg, Workload: rs.inputs[i]}
		_, sp = tracing.StartSpan(ctx, "bench.sweep.journal_record")
		t0 = time.Now()
		err = jnl.Record(job, want)
		ps.journal.addDur(time.Since(t0))
		sp.EndErr(err)
		if err != nil {
			return nil, err
		}

		raw, err := json.Marshal(want)
		if err != nil {
			return nil, err
		}
		fp := core.Fingerprint(cfg, traces)
		_, sp = tracing.StartSpan(ctx, "bench.resultcache.put")
		t0 = time.Now()
		err = cache.Put(fp, raw)
		ps.cachePut.addDur(time.Since(t0))
		sp.EndErr(err)
		if err != nil {
			return nil, err
		}
		_, sp = tracing.StartSpan(ctx, "bench.resultcache.get")
		t0 = time.Now()
		got, hit, err := cache.Get(fp)
		ps.cacheGet.addDur(time.Since(t0))
		sp.EndErr(err)
		if err != nil {
			return nil, err
		}
		if !hit || !bytes.Equal(got, raw) {
			return nil, fmt.Errorf("%s: result cache returned other bytes: %w", p.name, errMismatch)
		}
	}
	if ps.journalBytes, err = fileBytes(jnlPath); err != nil {
		return nil, err
	}
	return ps, nil
}

func fileBytes(path string) (uint64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return uint64(fi.Size()), nil
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += uint64(fi.Size())
	}
	return n, nil
}

// coreMetrics renders the tick kernel's per-layer metrics from one
// replay: timings are medians over points, counts are exact sums.
func coreMetrics(m map[string]metric, rs *replayStats) {
	t := rs.totals
	m["workloads.build_ms"] = metric{rs.build.median(), "ms"}
	m["workloads.refs"] = metric{float64(rs.srcRefs), "refs"}
	m["workloads.unique_pages"] = metric{float64(rs.srcPages), "pages"}
	m["core.new_ms"] = metric{rs.newSim.median(), "ms"}
	m["core.step_ms"] = metric{rs.step.median(), "ms"}
	var stepMs float64
	for _, v := range rs.step {
		stepMs += v
	}
	m["core.ns_per_ref"] = metric{stepMs * 1e6 / float64(t.refs), "ns"}
	m["core.steps"] = metric{float64(t.steps), "count"}
	m["core.ff_ticks"] = metric{float64(t.ffTicks), "ticks"}
	m["core.ff_share"] = metric{float64(t.ffTicks) / float64(t.ticks), "ratio"}
	m["core.remaps"] = metric{float64(t.remaps), "count"}
	m["core.ticks"] = metric{float64(t.ticks), "ticks"}
	m["core.hits"] = metric{float64(t.hits), "count"}
	m["core.misses"] = metric{float64(t.misses), "count"}
	m["core.hit_ratio"] = metric{float64(t.hits) / float64(t.refs), "ratio"}
	m["core.fetches"] = metric{float64(t.fetches), "count"}
	m["core.evictions"] = metric{float64(t.evictions), "count"}
	m["core.channel_util"] = metric{float64(t.fetches) / float64(t.channelSlots), "ratio"}
}

// probeMetrics renders the storage-layer probes' metrics.
func probeMetrics(m map[string]metric, ps *probeStats) {
	m["snap.checkpoint_ms"] = metric{ps.checkpoint.median(), "ms"}
	m["snap.resume_ms"] = metric{ps.resume.median(), "ms"}
	m["snap.bytes"] = metric{float64(ps.snapBytes), "bytes"}
	m["sweep.journal_record_ms"] = metric{ps.journal.median(), "ms"}
	m["sweep.journal_bytes"] = metric{float64(ps.journalBytes), "bytes"}
	m["resultcache.put_ms"] = metric{ps.cachePut.median(), "ms"}
	m["resultcache.get_ms"] = metric{ps.cacheGet.median(), "ms"}
}
