package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// samples is one timing metric's observations within a run.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

// quartiles returns the first quartile, median and third quartile with
// the same "exclusive" method as Python's statistics.quantiles(n=4), the
// method the benchmark's spread gate uses across runs.
func (s samples) quartiles() (q1, med, q3 float64) {
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(j int) float64 { // statistics.quantiles, method="exclusive"
		m := n + 1
		i := j * m / 4
		if i < 1 {
			i = 1
		}
		if i > n-1 {
			i = n - 1
		}
		delta := float64(j*m-i*4) / 4
		return v[i-1] + delta*(v[i]-v[i-1])
	}
	med = v[n/2]
	if n%2 == 0 {
		med = (v[n/2-1] + v[n/2]) / 2
	}
	return at(1), med, at(3)
}

func (s samples) median() float64 {
	_, m, _ := s.quartiles()
	return m
}

// percentile returns the p-quantile (nearest rank) and how many samples
// lie above it. A percentile is reported only when at least ten samples
// lie beyond it.
func (s samples) percentile(p float64) (v float64, beyond int) {
	if len(s) == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// describe renders a timing metric with its sample count and
// interquartile range, the form every diagnostic line uses.
func (s samples) describe(unit string) string {
	q1, med, q3 := s.quartiles()
	return fmt.Sprintf("median %.4g %s (n=%d, IQR %.4g..%.4g, spread %.1f%%)",
		med, unit, len(s), q1, q3, 100*(q3-q1)/med)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a snapshot of the Go runtime counters the host layer
// reports.
type runtimeSample struct {
	gcCycles  uint64
	allocB    uint64
	gcCPU     float64
	totalCPU  float64
	heapBytes uint64
}

var runtimeKeys = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ms[i].Name = k
	}
	metrics.Read(ms)
	return runtimeSample{
		gcCycles:  ms[0].Value.Uint64(),
		allocB:    ms[1].Value.Uint64(),
		gcCPU:     ms[2].Value.Float64(),
		totalCPU:  ms[3].Value.Float64(),
		heapBytes: ms[4].Value.Uint64(),
	}
}

// heapWatch tracks the peak live heap across the points where it is
// sampled (between timed operations); concurrent clients share one.
type heapWatch struct{ peak atomic.Uint64 }

func (h *heapWatch) sample() {
	b := readRuntime().heapBytes
	for {
		p := h.peak.Load()
		if b <= p || h.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// canary times a fixed CPU-and-memory loop: a pseudo-random walk over a
// 4 MiB table, larger than a core's private caches, with integer mixing. It touches nothing the simulator
// does, so a shift in its time between runs is host drift, not a
// regression. It is reported beside the metrics and never used to
// normalise them.
func canary() samples {
	const words = 1 << 19 // 4 MiB of uint64
	table := make([]uint64, words)
	var out samples
	x := uint64(0x9e3779b97f4a7c15)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (words - 1)
			table[j] += x
		}
		out.addDur(time.Since(t0))
	}
	runtime.KeepAlive(table)
	return out
}

// probeKeys sizes the probe's map, and probeSteps is one probe pass;
// a pass takes about 2 ms on the development host.
const (
	probeKeys  = 1 << 14
	probeSteps = 1 << 17
)

// refProbeMs is the reference host speed the adjusted metrics are scaled
// to: a round figure near a probe pass's time on the development host.
// Only ratios between runs on one host mean anything; the constant keeps
// the adjusted values near the wall times that host shows.
const refProbeMs = 2.0

// probe measures host speed inside the timed window, between
// operations, so the adjusted metrics can take out the host's drift. A
// pass updates random entries of a Go map: hashing, branches and a
// working set of a few hundred KiB, which tracks the simulator's
// slowdowns better than the canary's 4 MiB walk does (see README.md).
// Each client owns one, built before the window. Its map holds no
// pointers, so the collector never scans it.
type probe struct {
	m    map[uint64]uint64
	keys []uint64
	x    uint64
}

func newProbe() *probe {
	p := &probe{m: make(map[uint64]uint64, probeKeys), keys: make([]uint64, probeKeys), x: 0x9e3779b97f4a7c15}
	for i := range p.keys {
		p.keys[i] = uint64(i) * 0x9e3779b97f4a7c15
		p.m[p.keys[i]] = uint64(i)
	}
	return p
}

// pass times one probe pass in ms.
func (p *probe) pass() float64 {
	t0 := time.Now()
	v := p.x
	for i := 0; i < probeSteps; i++ {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		p.m[p.keys[v&(probeKeys-1)]] += v
	}
	p.x = v
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// run makes one warm-up pass, which brings the map back into the
// caches the operation just used, and returns the median of five timed
// passes in ms.
func (p *probe) run() float64 {
	p.pass()
	var s samples
	for i := 0; i < 5; i++ {
		s.add(p.pass())
	}
	return s.median()
}
