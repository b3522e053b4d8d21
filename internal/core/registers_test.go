package core

import (
	"bytes"
	"fmt"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// checkRegisters asserts the kernel's derived registers against their
// sources: the residency mirror res against the store, and the
// current-page register cur against the trace cursor of every core that
// is not done.
func checkRegisters(t *testing.T, s *Sim, when string) {
	t.Helper()
	if len(s.res) != s.universe {
		t.Fatalf("%s: len(res) = %d, universe %d", when, len(s.res), s.universe)
	}
	for pg := range s.res {
		if want := s.store.Contains(model.PageID(pg)); s.res[pg] != want {
			t.Fatalf("%s (tick %d): res[%d] = %v, store says %v", when, s.tick, pg, s.res[pg], want)
		}
	}
	for i := range s.cores {
		if s.cores[i].done {
			continue
		}
		if want := s.traces[i][s.pos[i]]; s.cur[i] != want {
			t.Fatalf("%s (tick %d): cur[%d] = %d, traces[%d][%d] = %d", when, s.tick, i, s.cur[i], i, s.pos[i], want)
		}
	}
}

// stepChecked steps s to completion, checking the registers after every
// Step, and returns the number of Steps taken.
func stepChecked(t *testing.T, s *Sim, when string) int {
	t.Helper()
	n := 0
	for s.Step() {
		n++
		checkRegisters(t, s, when)
	}
	checkRegisters(t, s, when+" at end")
	return n
}

// TestRegistersMatchStore pins the tick loop's private state to what it
// mirrors: after every Step, res[p] equals store.Contains(p) for every
// page and cur[i] equals the core's current reference, across every
// replacement policy, mapping, arbiter and backend, on dense and sparse
// page IDs, with fast-forward on and off — and again on a simulator
// resumed from a mid-run checkpoint, where res is rebuilt rather than
// restored.
func TestRegistersMatchStore(t *testing.T) {
	contended := checkpointWorkload()
	hitHeavy := hitHeavyWorkload(3, 120, 5)
	denseContended, _ := relabelDense(contended)
	denseHitHeavy, _ := relabelDense(hitHeavy)
	workloads := []struct {
		name string
		ts   [][]model.PageID
	}{
		{"contended-sparse", contended},
		{"contended-dense", denseContended},
		{"hits-sparse", hitHeavy},
		{"hits-dense", denseHitHeavy},
	}
	backends := []membackend.Config{
		{Kind: membackend.Reference},
		{Kind: membackend.Bandwidth},
		{Kind: membackend.Hybrid, FastSlots: 8},
	}
	policies := append(replacement.Kinds(), replacement.Belady)
	for _, mapping := range Mappings() {
		for _, pol := range policies {
			for _, arb := range arbiter.Kinds() {
				for _, be := range backends {
					cfg := Config{
						HBMSlots:     8,
						Channels:     2,
						FetchLatency: 2,
						Arbiter:      arb,
						Replacement:  pol,
						Mapping:      mapping,
						Permuter:     arbiter.Dynamic,
						RemapPeriod:  7,
						Seed:         5,
						Backend:      be,
					}
					name := fmt.Sprintf("%s/%s/%s/%s", mapping, pol, arb, be.Kind)
					t.Run(name, func(t *testing.T) {
						for _, wl := range workloads {
							for _, noFF := range []bool{false, true} {
								testRegisters(t, cfg, wl.ts, noFF, fmt.Sprintf("%s noFF=%v", wl.name, noFF))
							}
						}
					})
				}
			}
		}
	}
}

func testRegisters(t *testing.T, cfg Config, ts [][]model.PageID, noFF bool, label string) {
	t.Helper()
	whole, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	whole.noFF = noFF
	checkRegisters(t, whole, label+" after New")
	steps := stepChecked(t, whole, label)

	// Checkpoint halfway through the same run, resume, and keep checking.
	part, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	part.noFF = noFF
	for i := 0; i < steps/2 && part.Step(); i++ {
	}
	var buf bytes.Buffer
	if err := part.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(&buf, cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	resumed.noFF = noFF
	checkRegisters(t, resumed, label+" after Resume")
	stepChecked(t, resumed, label+" resumed")
	if resumed.Tick() != whole.Tick() {
		t.Fatalf("%s: resumed run ended at tick %d, uninterrupted at %d", label, resumed.Tick(), whole.Tick())
	}
}
