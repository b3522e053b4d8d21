package replacement

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// testTraces is a small disjoint workload for the clairvoyant policy:
// core c references pages [c*8, c*8+8).
func testTraces(rng *rand.Rand) [][]model.PageID {
	traces := make([][]model.PageID, 3)
	for c := range traces {
		traces[c] = make([]model.PageID, 200)
		for j := range traces[c] {
			traces[c][j] = model.PageID(c*8 + rng.Intn(8))
		}
	}
	return traces
}

// build returns a fresh policy of kind; Belady runs on testTraces' pages.
func build(t *testing.T, kind Kind) Policy {
	t.Helper()
	if kind == Belady {
		return NewBelady(testTraces(rand.New(rand.NewSource(1))), 24)
	}
	return mustNew(t, kind, 5)
}

// warm drives p like the simulator does — touch on a hit, evict and
// insert on a miss at capacity 10 — over the first n references of
// testTraces, interleaving cores.
func warm(p Policy, n int) {
	traces := testTraces(rand.New(rand.NewSource(1)))
	for pos := 0; pos < n; pos++ {
		for _, tr := range traces {
			pg := tr[pos]
			if !p.Contains(pg) {
				if p.Len() == 10 {
					p.Evict()
				}
				p.Insert(pg)
			}
			p.Touch(pg)
		}
	}
}

// drain evicts every page, returning the eviction order.
func drain(p Policy) []model.PageID {
	var out []model.PageID
	for {
		pg, ok := p.Evict()
		if !ok {
			return out
		}
		out = append(out, pg)
	}
}

func save(t *testing.T, p Policy) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	p.SaveState(w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// load restores b into p the way core.Resume does: decode, verify the
// checksum, then run any deferred restore work.
func load(p Policy, b []byte) error {
	r := snap.NewReader(bytes.NewReader(b))
	r.MaxPages = testUniverse
	p.LoadState(r)
	if err := r.Verify(); err != nil {
		return err
	}
	if f, ok := p.(snap.Finisher); ok {
		return f.FinishLoad()
	}
	return nil
}

// TestStateRoundTrip checkpoints every policy mid-run and restores it
// into a fresh instance (one holding stale pages the restore must
// clear): both must then continue identically.
func TestStateRoundTrip(t *testing.T) {
	for _, kind := range append(Kinds(), Belady) {
		t.Run(string(kind), func(t *testing.T) {
			p := build(t, kind)
			warm(p, 120)
			got := build(t, kind)
			warm(got, 7)
			if err := load(got, save(t, p)); err != nil {
				t.Fatal(err)
			}
			if got.Len() != p.Len() {
				t.Fatalf("restored %d pages, want %d", got.Len(), p.Len())
			}
			for pg := model.PageID(0); pg < 24; pg++ {
				if got.Contains(pg) != p.Contains(pg) {
					t.Fatalf("page %d: restored residency %v", pg, got.Contains(pg))
				}
			}
			want := drain(p)
			if order := drain(got); !slices.Equal(order, want) {
				t.Fatalf("restored eviction order %v, want %v", order, want)
			}
		})
	}
}

// TestStateRejectsCorruption hand-builds snapshots a policy could never
// have written; each must fail to load rather than corrupt the policy.
func TestStateRejectsCorruption(t *testing.T) {
	pages := func(ps ...uint64) func(*snap.Writer) {
		return func(w *snap.Writer) {
			w.Int(len(ps))
			for _, p := range ps {
				w.U64(p)
			}
		}
	}
	clockPages := func(ps ...uint64) func(*snap.Writer) {
		return func(w *snap.Writer) {
			w.Int(len(ps))
			for _, p := range ps {
				w.U64(p)
				w.Bool(false)
			}
		}
	}
	// A Belady snapshot is: core count, per-core serve counts, one
	// cursor offset per page, then the resident pages.
	belady := func(cores int, serves, offset uint64, resident ...uint64) func(*snap.Writer) {
		return func(w *snap.Writer) {
			w.Int(cores)
			for range cores {
				w.U64(serves)
			}
			for range 24 {
				w.U64(offset)
			}
			pages(resident...)(w)
		}
	}
	for _, tc := range []struct {
		kind  Kind
		write func(*snap.Writer)
		want  string
	}{
		{LRU, pages(3, 3), "twice"},
		{FIFO, pages(testUniverse), "out of range"},
		{LRU, pages(make([]uint64, testUniverse+1)...), "exceeds limit"},
		{Clock, clockPages(4, 4), "twice"},
		{Random, pages(1, 1), "twice"},
		{Belady, belady(2, 0, 0), "core count"},
		{Belady, belady(3, 601, 0), "serve count"},
		{Belady, belady(3, 0, 1000), "cursor offset"},
		{Belady, belady(3, 0, 0, 5, 5), "twice"},
	} {
		var buf bytes.Buffer
		w := snap.NewWriter(&buf)
		tc.write(w)
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		err := load(build(t, tc.kind), buf.Bytes())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.kind, err, tc.want)
		}
	}
}

// TestTouchAllMatchesTouchLoop pins the batched entry point's contract:
// for every policy, TouchAll over a batch leaves exactly the state a
// Touch loop over the same pages does, observed through the full
// eviction order. The batches continue the warm-up's reference order in
// random-length chunks, as fast-forward stretches replay serves.
func TestTouchAllMatchesTouchLoop(t *testing.T) {
	traces := testTraces(rand.New(rand.NewSource(1)))
	var refs []model.PageID
	for pos := 50; pos < 200; pos++ {
		for _, tr := range traces {
			refs = append(refs, tr[pos])
		}
	}
	for _, kind := range append(Kinds(), Belady) {
		t.Run(string(kind), func(t *testing.T) {
			batched, looped := build(t, kind), build(t, kind)
			warm(batched, 50)
			warm(looped, 50)
			rng := rand.New(rand.NewSource(9))
			for rest := refs; len(rest) > 0; {
				n := min(len(rest), 1+rng.Intn(40))
				batched.TouchAll(rest[:n])
				for _, pg := range rest[:n] {
					looped.Touch(pg)
				}
				rest = rest[n:]
			}
			if a, b := drain(batched), drain(looped); !slices.Equal(a, b) {
				t.Fatalf("TouchAll eviction order %v, Touch loop %v", a, b)
			}
		})
	}
}
