package hbm

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/directmap"
	"hbmsim/internal/model"
)

// DirectMapped is the hardware-realistic store: page p may only occupy
// slot h(p) for a fixed 2-universal hash h, so inserting a page displaces
// whatever occupied its slot. There is no replacement policy — conflicts
// decide evictions, exactly as in KNL cache mode.
//
// The store serves a page universe compacted to [0, universe): each
// page's slot is precomputed once at construction into a flat slotOf
// table, so Contains and Insert — the tick-path operations — are two
// array reads instead of a 128-bit universal-hash evaluation per access.
// The slot of dense page d is the hash of its *original* PageID (via
// origOf), not of d itself, so slot conflicts — and therefore evictions,
// makespans, and every downstream metric — do not depend on how the
// workload was numbered. A nil origOf means the compaction was the
// identity.
type DirectMapped struct {
	slots  []int32  // slot -> resident dense page, or -1 when empty
	slotOf []uint32 // dense page -> its unique slot
	n      int
}

// NewDirectMapped returns an empty direct-mapped store of k slots for a
// compacted universe, with the slot hash drawn from the 2-universal
// family using the seed.
func NewDirectMapped(k int, seed int64, universe int, origOf []model.PageID) (*DirectMapped, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hbm: capacity must be positive, got %d", k)
	}
	if universe < 0 {
		return nil, fmt.Errorf("hbm: universe must be >= 0, got %d", universe)
	}
	if origOf != nil && len(origOf) != universe {
		return nil, fmt.Errorf("hbm: origOf has %d entries for universe %d", len(origOf), universe)
	}
	h, err := directmap.NewUniversalHash(uint64(k), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	s := &DirectMapped{
		slots:  make([]int32, k),
		slotOf: make([]uint32, universe),
	}
	for i := range s.slots {
		s.slots[i] = -1
	}
	for d := range s.slotOf {
		op := model.PageID(d)
		if origOf != nil {
			op = origOf[d]
		}
		s.slotOf[d] = uint32(h.Hash(uint64(op)))
	}
	return s, nil
}

// Contains reports whether the page is resident (in its slot).
func (s *DirectMapped) Contains(page model.PageID) bool {
	return s.slots[s.slotOf[page]] == int32(page)
}

// Touch is a no-op: direct-mapped slots have no recency state.
func (s *DirectMapped) Touch(model.PageID) {}

// TouchAll is a no-op, as Touch is.
func (s *DirectMapped) TouchAll([]model.PageID) {}

// EnsureRoom is a no-op: conflicts evict at insert time.
func (s *DirectMapped) EnsureRoom(int) []model.PageID { return nil }

// Insert places the page in its slot, displacing the occupant if any.
func (s *DirectMapped) Insert(page model.PageID) (model.PageID, bool, error) {
	i := s.slotOf[page]
	old := s.slots[i]
	if old == int32(page) {
		return 0, false, fmt.Errorf("hbm: page %d already resident", page)
	}
	s.slots[i] = int32(page)
	if old >= 0 {
		return model.PageID(old), true, nil
	}
	s.n++
	return 0, false, nil
}
