package replacement

import (
	"math/rand"
	"slices"
	"testing"

	"hbmsim/internal/model"
)

// sliceModel is the obvious O(n) form of each online policy over a plain
// slice of resident pages, an oracle independent of the production
// policies' linked structures and flat per-page tables. It takes any
// page IDs, so the differential tests feed it sparse ones.
type sliceModel struct {
	kind Kind
	// pages is victim-first for LRU and FIFO, the ring in sweep order for
	// Clock, and insertion order with swap-removal for Random.
	pages []model.PageID
	ref   []bool // Clock reference bits, parallel to pages
	hand  int
	rng   *rand.Rand
}

func newSliceModel(kind Kind, seed int64) *sliceModel {
	return &sliceModel{kind: kind, rng: rand.New(rand.NewSource(seed))}
}

func (m *sliceModel) contains(p model.PageID) bool { return slices.Contains(m.pages, p) }

func (m *sliceModel) insert(p model.PageID) {
	if m.kind != Clock {
		m.pages = append(m.pages, p)
		return
	}
	// A new page goes in just behind the hand.
	m.pages = slices.Insert(m.pages, m.hand, p)
	m.ref = slices.Insert(m.ref, m.hand, false)
	if len(m.pages) > 1 {
		m.hand++
	}
}

func (m *sliceModel) touch(p model.PageID) {
	i := slices.Index(m.pages, p)
	switch {
	case i < 0:
	case m.kind == LRU:
		m.pages = append(slices.Delete(m.pages, i, i+1), p)
	case m.kind == Clock:
		m.ref[i] = true
	}
}

func (m *sliceModel) evict() (model.PageID, bool) {
	if len(m.pages) == 0 {
		return 0, false
	}
	var p model.PageID
	switch m.kind {
	case Clock:
		for m.ref[m.hand] {
			m.ref[m.hand] = false
			m.hand = (m.hand + 1) % len(m.pages)
		}
		p = m.pages[m.hand]
		m.pages = slices.Delete(m.pages, m.hand, m.hand+1)
		m.ref = slices.Delete(m.ref, m.hand, m.hand+1)
		if m.hand == len(m.pages) {
			m.hand = 0
		}
	case Random:
		i := m.rng.Intn(len(m.pages))
		p = m.pages[i]
		last := len(m.pages) - 1
		m.pages[i] = m.pages[last]
		m.pages = m.pages[:last]
	default:
		p = m.pages[0]
		m.pages = m.pages[1:]
	}
	return p, true
}

// TestDenseMatchesSparse drives each policy on dense IDs and the slice
// model on sparse ones through the same random operation sequence and
// requires identical answers from every method, including the full
// eviction order. Random is seeded identically on both sides, the model
// through plain math/rand, so this also pins the policy's rng stream.
func TestDenseMatchesSparse(t *testing.T) {
	const universe = 128
	sparse := func(p model.PageID) model.PageID { return p*977 + 1<<33 }
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			dense, err := New(kind, universe, 99)
			if err != nil {
				t.Fatal(err)
			}
			ref := newSliceModel(kind, 99)

			rng := rand.New(rand.NewSource(41))
			for step := 0; step < 5000; step++ {
				p := model.PageID(rng.Intn(universe))
				if dense.Contains(p) != ref.contains(sparse(p)) {
					t.Fatalf("step %d: Contains(%d) diverges", step, p)
				}
				switch op := rng.Intn(10); {
				case op < 4: // insert if absent, else touch
					if dense.Contains(p) {
						dense.Touch(p)
						ref.touch(sparse(p))
					} else {
						dense.Insert(p)
						ref.insert(sparse(p))
					}
				case op < 7:
					dense.Touch(p)
					ref.touch(sparse(p))
				default:
					dv, dok := dense.Evict()
					sv, sok := ref.evict()
					if dok != sok || (dok && sparse(dv) != sv) {
						t.Fatalf("step %d: Evict diverges: (%d,%v) vs (%d,%v)", step, dv, dok, sv, sok)
					}
				}
				if dense.Len() != len(ref.pages) {
					t.Fatalf("step %d: Len %d vs %d", step, dense.Len(), len(ref.pages))
				}
			}
			// Drain both: the complete eviction orders must match.
			for {
				dv, dok := dense.Evict()
				sv, sok := ref.evict()
				if dok != sok || (dok && sparse(dv) != sv) {
					t.Fatalf("drain: Evict diverges: (%d,%v) vs (%d,%v)", dv, dok, sv, sok)
				}
				if !dok {
					break
				}
			}
		})
	}
}

// beladyModel is the clairvoyant policy computed the slow way: a page's
// next use is found by scanning its owner's trace from the owner's
// current position, and victims are scanned in resident order with
// swap-removal, so ties break exactly as the production policy's do.
type beladyModel struct {
	traces   [][]model.PageID
	owner    map[model.PageID]int
	served   []int
	resident []model.PageID
}

func newBeladyModel(traces [][]model.PageID) *beladyModel {
	m := &beladyModel{traces: traces, owner: map[model.PageID]int{}, served: make([]int, len(traces))}
	for c, tr := range traces {
		for _, p := range tr {
			m.owner[p] = c
		}
	}
	return m
}

func (m *beladyModel) touch(p model.PageID) { m.served[m.owner[p]]++ }

func (m *beladyModel) evict() (model.PageID, bool) {
	if len(m.resident) == 0 {
		return 0, false
	}
	best, bestDist := 0, -1
	for i, p := range m.resident {
		o := m.owner[p]
		d := 1 << 30
		if j := slices.Index(m.traces[o][m.served[o]:], p); j >= 0 {
			d = j
		}
		if d > bestDist {
			best, bestDist = i, d
		}
	}
	p := m.resident[best]
	last := len(m.resident) - 1
	m.resident[best] = m.resident[last]
	m.resident = m.resident[:last]
	return p, true
}

// TestBeladyDenseMatchesSparse replays a workload against the production
// policy and the slow model, mirroring how the simulator drives them:
// Touch on every reference, Evict when a bounded "store" overflows.
func TestBeladyDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traces := make([][]model.PageID, 3)
	next := model.PageID(0)
	for i := range traces {
		tr := make([]model.PageID, 400)
		pool := make([]model.PageID, 24)
		for j := range pool {
			pool[j] = next
			next++
		}
		for j := range tr {
			tr[j] = pool[rng.Intn(len(pool))]
		}
		traces[i] = tr
	}

	dense := NewBelady(traces, int(next))
	ref := newBeladyModel(traces)
	const capacity = 16
	for pos := 0; pos < 400; pos++ {
		for _, tr := range traces {
			p := tr[pos]
			if dense.Contains(p) != slices.Contains(ref.resident, p) {
				t.Fatalf("pos %d: Contains(%d) diverges", pos, p)
			}
			if !dense.Contains(p) {
				if dense.Len() >= capacity {
					dv, dok := dense.Evict()
					sv, sok := ref.evict()
					if dok != sok || dv != sv {
						t.Fatalf("pos %d: Evict diverges: (%d,%v) vs (%d,%v)", pos, dv, dok, sv, sok)
					}
				}
				dense.Insert(p)
				ref.resident = append(ref.resident, p)
			}
			// The simulator touches a page as it is served.
			dense.Touch(p)
			ref.touch(p)
			if dense.Len() != len(ref.resident) {
				t.Fatalf("pos %d: Len %d vs %d", pos, dense.Len(), len(ref.resident))
			}
		}
	}
	for {
		dv, dok := dense.Evict()
		sv, sok := ref.evict()
		if dok != sok || dv != sv {
			t.Fatalf("drain: Evict diverges: (%d,%v) vs (%d,%v)", dv, dok, sv, sok)
		}
		if !dok {
			break
		}
	}
}

// TestNewErrors covers constructor validation.
func TestNewErrors(t *testing.T) {
	if _, err := New(Kind("nope"), 8, 0); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
	if _, err := New(LRU, -1, 0); err == nil {
		t.Fatal("negative universe should be rejected")
	}
	p, err := New(LRU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("empty-universe policy tracks %d pages", p.Len())
	}
	if _, ok := p.Evict(); ok {
		t.Fatal("Evict on empty policy should report ok=false")
	}
}
