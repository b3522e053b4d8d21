package hbm

import (
	"bytes"
	"strings"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// encode runs save through a snap.Writer and returns the finished bytes.
func encode(t *testing.T, save func(*snap.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	save(w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode feeds b to load with testUniverse as the page limit and returns
// the first error, including the checksum's.
func decode(b []byte, load func(*snap.Reader)) error {
	r := snap.NewReader(bytes.NewReader(b))
	r.MaxPages = testUniverse
	load(r)
	return r.Verify()
}

func TestAssocStateRoundTrip(t *testing.T) {
	s := newAssoc(t, 4)
	for p := model.PageID(1); p <= 4; p++ {
		mustInsert(t, s, p)
	}
	s.Touch(1) // LRU order now 2, 3, 4, 1
	b := encode(t, s.SaveState)

	got := newAssoc(t, 4)
	if err := decode(b, got.LoadState); err != nil {
		t.Fatal(err)
	}
	if err := got.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	if ev := got.EnsureRoom(4); len(ev) != 4 || ev[0] != 2 || ev[1] != 3 || ev[2] != 4 || ev[3] != 1 {
		t.Fatalf("restored eviction order %v, want [2 3 4 1]", ev)
	}

	small := newAssoc(t, 2)
	if err := decode(b, small.LoadState); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("4 pages into capacity 2: err = %v", err)
	}
}

func TestDirectMappedStateRoundTrip(t *testing.T) {
	s := newDirect(t, 8, 3)
	for p := model.PageID(0); p < 20; p++ {
		if _, _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	b := encode(t, s.SaveState)

	got := newDirect(t, 8, 3)
	mustInsert(t, got, 100) // stale residency the restore must clear
	if err := decode(b, got.LoadState); err != nil {
		t.Fatal(err)
	}
	if got.n != s.n {
		t.Fatalf("occupied %d, want %d", got.n, s.n)
	}
	for p := model.PageID(0); p < testUniverse; p++ {
		if got.Contains(p) != s.Contains(p) {
			t.Fatalf("page %d: restored residency %v, want %v", p, got.Contains(p), s.Contains(p))
		}
	}
}

// TestDirectMappedStateRejects feeds hand-built snapshots a page could
// never produce: every one must fail to load rather than fabricate
// residency.
func TestDirectMappedStateRejects(t *testing.T) {
	s := newDirect(t, 8, 3)
	const page = 5
	home := uint64(s.slotOf[page])
	pairs := func(ps ...[2]uint64) func(*snap.Writer) {
		return func(w *snap.Writer) {
			w.Int(len(ps))
			for _, p := range ps {
				w.U64(p[0])
				w.U64(p[1])
			}
		}
	}
	for name, tc := range map[string]struct {
		save func(*snap.Writer)
		want string
	}{
		"wrong slot":       {pairs([2]uint64{(home + 1) % 8, page}), "hash says"},
		"slot range":       {pairs([2]uint64{8, page}), "out of range"},
		"double occupancy": {pairs([2]uint64{home, page}, [2]uint64{home, page}), "occupied twice"},
		"page range":       {pairs([2]uint64{home, testUniverse}), "out of range"},
		"count":            {pairs(make([][2]uint64, 9)...), "exceeds limit"},
	} {
		err := decode(encode(t, tc.save), newDirect(t, 8, 3).LoadState)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}
