package main

import (
	"io"
	"strings"
	"testing"
)

// exact reports whether a per-layer metric is an exact count or a ratio
// of counts: everything except host-time measurements and the Go
// runtime's own counters, which depend on scheduling.
func exact(name string, m metric) bool {
	return m.Unit != "ms" && m.Unit != "ns" && !strings.HasPrefix(name, "host.")
}

// TestCountsRepeatAtASeed runs each workload's traced script twice at one
// seed and once at a held-out seed. sim_ticks and every count-valued
// per-layer metric must repeat exactly at the seed, and the simulated
// work must change with the seed, which shows the seed reaches the
// generators.
func TestCountsRepeatAtASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced script three times")
	}
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			measure := func(seed int64) *result {
				res, err := run(config{workload: wl, seed: seed, seconds: 0.1, trace: true, dir: t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("seed %d: %d of %d operations failed their output checks", seed, res.Failed, res.Attempted)
				}
				return res
			}
			a, b, held := measure(7), measure(7), measure(8)
			if a.endToEnd["sim_ticks"] != b.endToEnd["sim_ticks"] {
				t.Errorf("sim_ticks %v then %v at one seed", a.endToEnd["sim_ticks"].Value, b.endToEnd["sim_ticks"].Value)
			}
			for name, m := range a.Metrics {
				if exact(name, m) && b.Metrics[name] != m {
					t.Errorf("%s: %v then %v at one seed", name, m.Value, b.Metrics[name].Value)
				}
			}
			for _, name := range []string{"core.ticks", "workloads.refs"} {
				if held.Metrics[name] == a.Metrics[name] {
					t.Errorf("%s is %v at both seeds", name, a.Metrics[name].Value)
				}
			}
			if held.endToEnd["sim_ticks"] == a.endToEnd["sim_ticks"] {
				t.Errorf("sim_ticks is %v at both seeds", a.endToEnd["sim_ticks"].Value)
			}
		})
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the run-to-run spread gate
// uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        samples
		q1, m, q3 float64
	}{
		{samples{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{samples{5, 1, 3}, 1, 3, 5},
		{samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := c.in.quartiles()
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
