package directmap

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// Assoc is a fully-associative cache of k pages with a pluggable
// replacement policy: the idealised HBM the theory analyses.
type Assoc struct {
	k      int
	policy replacement.Policy
	hits   uint64
	misses uint64
}

// NewAssoc returns an empty fully-associative cache over the page
// universe [0, universe). Callers with arbitrary page IDs renumber their
// trace first (see Compact); replacement decisions depend only on page
// identity, so the cache's hit/miss sequence does not change.
func NewAssoc(k int, kind replacement.Kind, seed int64, universe int) (*Assoc, error) {
	if k <= 0 {
		return nil, fmt.Errorf("directmap: capacity must be positive, got %d", k)
	}
	pol, err := replacement.New(kind, universe, seed)
	if err != nil {
		return nil, err
	}
	return &Assoc{k: k, policy: pol}, nil
}

// Compact renumbers a trace into the dense range [0, U) in
// first-appearance order, returning the dense trace and U. The renaming
// is a bijection on the referenced pages, so any identity-based cache
// (Assoc, Transform's associative simulation target) behaves
// identically on the result; value-hashing caches (Cache) must keep the
// original trace, since renaming changes their conflict pattern.
func Compact(tr []model.PageID) ([]model.PageID, int) {
	ids := make(map[model.PageID]int32, 1024)
	out := make([]model.PageID, len(tr))
	for i, p := range tr {
		id, ok := ids[p]
		if !ok {
			id = int32(len(ids))
			ids[p] = id
		}
		out[i] = model.PageID(id)
	}
	return out, len(ids)
}

// Access touches one page and reports whether it hit.
func (a *Assoc) Access(page model.PageID) bool {
	if a.policy.Contains(page) {
		a.policy.Touch(page)
		a.hits++
		return true
	}
	a.misses++
	if a.policy.Len() == a.k {
		a.policy.Evict()
	}
	a.policy.Insert(page)
	return false
}

// Hits returns the hit count. Misses returns the miss count.
func (a *Assoc) Hits() uint64   { return a.hits }
func (a *Assoc) Misses() uint64 { return a.misses }

// Cache is a plain direct-mapped cache of k slots: page p lives only in
// slot h(p), so two pages with colliding slots evict each other — the
// hardware reality of KNL-style HBM caches.
type Cache struct {
	slots []model.PageID
	full  []bool
	hash  UniversalHash
	hits  uint64
	miss  uint64
}

// NewCache returns an empty direct-mapped cache of k slots whose
// address-to-slot mapping is drawn from the 2-universal family.
func NewCache(k int, seed int64) (*Cache, error) {
	if k <= 0 {
		return nil, fmt.Errorf("directmap: capacity must be positive, got %d", k)
	}
	rng := rand.New(rand.NewSource(seed))
	h, err := NewUniversalHash(uint64(k), rng)
	if err != nil {
		return nil, err
	}
	return &Cache{slots: make([]model.PageID, k), full: make([]bool, k), hash: h}, nil
}

// Access touches one page and reports whether it hit. On a miss the page
// replaces whatever occupied its slot.
func (c *Cache) Access(page model.PageID) bool {
	s := c.hash.Hash(uint64(page))
	if c.full[s] && c.slots[s] == page {
		c.hits++
		return true
	}
	c.miss++
	c.slots[s] = page
	c.full[s] = true
	return false
}

// Hits returns the hit count. Misses returns the miss count.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.miss }
