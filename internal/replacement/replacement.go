// Package replacement implements block-replacement policies for the HBM:
// which resident page is evicted when new blocks arrive from DRAM and the
// HBM is full.
//
// The paper's theory and experiments use LRU (Sleator–Tarjan); FIFO and
// CLOCK are the classical alternatives it cites, Random is included as a
// baseline for ablations, and Belady is the clairvoyant offline
// baseline. Every policy runs over a page universe compacted to the dense
// range [0, universe) (internal/core compacts each workload before
// building its store), so residency indices and recency structures are
// flat slices indexed by page: the tick-path operations perform no map
// lookups and no allocations at steady state. All operations but
// Belady's victim scan run in O(1) (amortised for CLOCK).
package replacement

import (
	"fmt"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// Kind names a replacement policy.
type Kind string

// Replacement policy kinds.
const (
	LRU    Kind = "lru"
	FIFO   Kind = "fifo"
	Clock  Kind = "clock"
	Random Kind = "random"
	// Belady is the clairvoyant offline policy. It cannot be built by New
	// (it needs the workload's future); construct it with NewBelady, or
	// set it as core.Config.Replacement, which wires the traces through.
	Belady Kind = "belady"
)

// Kinds lists every policy kind New constructs.
func Kinds() []Kind { return []Kind{LRU, FIFO, Clock, Random} }

// nilNode marks the end of the intrusive page lists.
const nilNode int32 = -1

// Policy tracks the set of resident pages and chooses eviction victims.
// Implementations are not safe for concurrent use; the simulator is a
// synchronous tick machine and drives a Policy from a single goroutine.
// Pages must lie in the universe the policy was built for.
type Policy interface {
	// Insert records that page became resident. The page must not already
	// be tracked.
	Insert(page model.PageID)
	// Touch records an access to a resident page (a serve from HBM). For
	// recency-based policies this refreshes the page; for FIFO it is a
	// no-op. Touching an untracked page is a no-op, except for Belady,
	// which counts every Touch as one serve of the page's owning core.
	Touch(page model.PageID)
	// TouchAll is behaviourally identical to calling Touch for each page
	// in order, but lets a policy exploit batch structure; the
	// simulator's fast-forward path replays a contention-free stretch's
	// touches through it. After TouchAll the policy's observable state
	// (victim order, reference bits, clairvoyant cursors) must be
	// bit-identical to the sequential Touch loop. No evictions or inserts
	// are interleaved with a batch: residency is static during a stretch.
	TouchAll(pages []model.PageID)
	// Evict removes and returns the policy's victim. ok is false when no
	// pages are tracked.
	Evict() (page model.PageID, ok bool)
	// Contains reports whether the page is tracked.
	Contains(page model.PageID) bool
	// Len returns the number of tracked pages.
	Len() int
	// SaveState and LoadState checkpoint the policy's dynamic state (see
	// state.go); a policy with deferred restore work also implements
	// snap.Finisher.
	snap.Saver
	snap.Loader
}

// New constructs a policy of the given kind over the page universe
// [0, universe). The seed is used only by Random; deterministic policies
// ignore it.
func New(kind Kind, universe int, seed int64) (Policy, error) {
	if universe < 0 {
		return nil, fmt.Errorf("replacement: universe must be >= 0, got %d", universe)
	}
	switch kind {
	case LRU:
		return newList(true, universe), nil
	case FIFO:
		return newList(false, universe), nil
	case Clock:
		return newClock(universe), nil
	case Random:
		return newRandom(universe, seed), nil
	case Belady:
		return nil, fmt.Errorf("replacement: %q needs the workload's traces; use NewBelady", kind)
	default:
		return nil, fmt.Errorf("replacement: unknown policy kind %q", kind)
	}
}
