package core

import (
	"fmt"
	"math/rand"
	"slices"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/directmap"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/stats"
)

// arrival is a granted fetch travelling down the naive loop's far
// channel (the paper's model, hard-wired — RunReference predates the
// membackend interface on purpose: it is the spec the reference backend
// is pinned against).
type arrival struct {
	core model.CoreID
	page model.PageID
	land model.Tick
}

// RunReference executes the same simulation as Run with a deliberately
// naive implementation: every tick walks every core through the five steps
// of §3.1 verbatim, with no event-driven bookkeeping. It exists as the
// executable specification — Run's optimised active-set simulator must
// produce bit-identical Results (see TestReferenceEquivalence) — and is
// O(p) per tick, so use Run for real work. Its HBM is a private store
// (refStore) that shares no code with the kernel's. Only the paper's
// memory model is implemented: configs selecting another backend are
// rejected.
func RunReference(cfg Config, traces [][]model.PageID) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(len(traces)); err != nil {
		return nil, err
	}
	if k := cfg.Backend.WithDefaults().Kind; k != membackend.Reference {
		return nil, fmt.Errorf("core: RunReference implements only the reference backend, not %q", k)
	}
	store, err := newRefStore(cfg, traces)
	if err != nil {
		return nil, err
	}
	arb, err := arbiter.New(cfg.Arbiter, len(traces), cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	perm, err := arbiter.NewPermuter(cfg.Permuter, cfg.Seed+3)
	if err != nil {
		return nil, err
	}

	type refCore struct {
		pos        int
		reqTick    model.Tick
		queued     bool
		done       bool
		resp       respAcc
		completion model.Tick
		lastServe  model.Tick
		maxGap     model.Tick
	}
	cores := make([]refCore, len(traces))
	pri := make([]int32, len(traces))
	var total uint64
	doneN := 0
	for i, tr := range traces {
		pri[i] = int32(i)
		cores[i].reqTick = 1
		if len(tr) == 0 {
			cores[i].done = true
			doneN++
		}
		total += uint64(len(tr))
	}
	capT := cfg.MaxTicks
	if capT == 0 {
		capT = 8*model.Tick(total+1) + 1024*model.Tick(len(traces)+cfg.HBMSlots+cfg.Channels)
	}

	var hist *stats.Histogram
	if cfg.CollectHistogram {
		hist = &stats.Histogram{}
	}
	var (
		t         model.Tick
		seq       uint64
		makespan  model.Tick
		fetches   uint64
		evictions uint64
		remaps    uint64
		inflight  []arrival
		truncated bool
		// Exact integer queue-depth accumulation, mirroring Sim: the two
		// implementations must agree bit-for-bit, and a streaming float
		// mean would diverge from Sim's closed-form fast-forward fold.
		queueSum   uint64
		queueTicks uint64
	)

	for doneN < len(cores) {
		if t >= capT {
			truncated = true
			break
		}
		t++

		// Step 1: remap.
		if cfg.RemapPeriod > 0 && t%cfg.RemapPeriod == 0 {
			perm.Permute(pri)
			arb.UpdatePriorities(pri)
			remaps++
		}

		// Step 2: every waiting core whose page is absent queues it.
		for i := range cores {
			c := &cores[i]
			if c.done || c.queued {
				continue
			}
			page := traces[i][c.pos]
			if !store.contains(page) {
				seq++
				arb.Push(model.Request{Core: model.CoreID(i), Page: page, Issued: c.reqTick, Seq: seq})
				c.queued = true
			}
		}

		// Step 3: make room for this tick's landings.
		var need int
		if cfg.FetchLatency == 1 {
			need = cfg.Channels
			if n := arb.Len(); n < need {
				need = n
			}
		} else {
			for _, a := range inflight {
				if a.land > t {
					break
				}
				need++
			}
		}
		evictions += uint64(store.ensureRoom(need))

		// Step 4: serve every core whose page is resident.
		for i := range cores {
			c := &cores[i]
			if c.done || c.queued {
				continue
			}
			page := traces[i][c.pos]
			if !store.contains(page) {
				continue // evicted between steps 2 and 4; re-queues next tick
			}
			store.touch(page)
			w := float64(t-c.reqTick) + 1
			c.resp.record(w)
			if gap := t - c.lastServe; gap > c.maxGap {
				c.maxGap = gap
			}
			c.lastServe = t
			if hist != nil {
				hist.Add(uint64(w))
			}
			c.pos++
			if c.pos == len(traces[i]) {
				c.done = true
				c.completion = t
				doneN++
			} else {
				c.reqTick = t + 1
			}
			if t > makespan {
				makespan = t
			}
		}

		// Step 5: grant channels, then land due transfers.
		for i := 0; i < cfg.Channels; i++ {
			r, ok := arb.Pop()
			if !ok {
				break
			}
			inflight = append(inflight, arrival{
				core: r.Core, page: r.Page,
				land: t + model.Tick(cfg.FetchLatency) - 1,
			})
		}
		landed := 0
		for _, a := range inflight {
			if a.land > t {
				break
			}
			landed++
			if displaced, err := store.insert(a.page); err != nil {
				panic(fmt.Sprintf("core: reference fetch failed at tick %d: %v", t, err))
			} else if displaced {
				evictions++
			}
			fetches++
			cores[a.core].queued = false
		}
		if landed > 0 {
			inflight = inflight[landed:]
		}
		queueSum += uint64(arb.Len())
		queueTicks++
	}

	res := &Result{
		Makespan:  makespan,
		Fetches:   fetches,
		Evictions: evictions,
		Remaps:    remaps,
		PerCore:   make([]CoreResult, len(cores)),
		Hist:      hist,
		Truncated: truncated,
	}
	var all stats.Welford
	for i := range cores {
		c := &cores[i]
		w := c.resp.finalize()
		all.Merge(w)
		res.Hits += c.resp.hits
		res.PerCore[i] = CoreResult{
			Refs:         w.N(),
			Hits:         c.resp.hits,
			Completion:   c.completion,
			ResponseMean: w.Mean(),
			ResponseMax:  w.Max(),
			MaxServeGap:  c.maxGap,
		}
		if c.maxGap > res.MaxServeGap {
			res.MaxServeGap = c.maxGap
		}
	}
	res.TotalRefs = all.N()
	res.Misses = res.TotalRefs - res.Hits
	res.ResponseMean = all.Mean()
	res.Inconsistency = all.StddevPop()
	res.ResponseMax = all.Max()
	if queueTicks > 0 {
		res.AvgQueueLen = float64(queueSum) / float64(queueTicks)
	}
	if makespan > 0 {
		res.ChannelUtilization = float64(fetches) / (float64(cfg.Channels) * float64(makespan))
	}
	if truncated {
		return res, &TruncatedError{Ticks: capT, Unfinished: len(cores) - doneN}
	}
	return res, nil
}

// refStore is RunReference's HBM: k slots under one replacement policy,
// or direct-mapped. It works on the caller's original page IDs, favours
// the obvious over the fast, and calls nothing in internal/hbm or
// internal/replacement, so the differential tests compare the kernel's
// stores against an independent implementation rather than against
// themselves.
type refStore struct {
	kind replacement.Kind // "" when direct-mapped
	k    int

	// Associative: the resident pages, with at[p] = p's index in pages
	// and key[i] pages[i]'s eviction key — the LRU last-touch or FIFO
	// insert stamp (the minimum is evicted), CLOCK's reference bit, or
	// Belady's next-use position in the owner's trace. Random and Belady
	// swap the last page into an evicted page's hole, so the slice order
	// is state (it breaks Belady's ties), as in the production policies;
	// CLOCK keeps pages as its ring in sweep order.
	pages []model.PageID
	key   []int
	at    map[model.PageID]int
	stamp int
	hand  int        // CLOCK: ring index of the hand
	rng   *rand.Rand // Random

	// Belady: each page's owning core, the owner's trace, and how many
	// serves (Touches) each core has received.
	owner  map[model.PageID]int
	traces [][]model.PageID
	served []int

	// Direct-mapped: slot[h(p)] holds p when full is set.
	hash directmap.UniversalHash
	slot []model.PageID
	full []bool
}

// newRefStore builds the store cfg selects, drawing its randomness from
// the same seeds as core.New (Seed+1 for the policy, Seed+4 for the
// direct-mapped slot hash).
func newRefStore(cfg Config, traces [][]model.PageID) (*refStore, error) {
	s := &refStore{k: cfg.HBMSlots}
	if cfg.Mapping == MappingDirect {
		h, err := directmap.NewUniversalHash(uint64(cfg.HBMSlots), rand.New(rand.NewSource(cfg.Seed+4)))
		if err != nil {
			return nil, err
		}
		s.hash, s.slot, s.full = h, make([]model.PageID, cfg.HBMSlots), make([]bool, cfg.HBMSlots)
		return s, nil
	}
	s.kind, s.at = cfg.Replacement, map[model.PageID]int{}
	switch s.kind {
	case replacement.LRU, replacement.FIFO, replacement.Clock:
	case replacement.Random:
		s.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	case replacement.Belady:
		s.owner, s.traces, s.served = map[model.PageID]int{}, traces, make([]int, len(traces))
		for c, tr := range traces {
			for _, p := range tr {
				s.owner[p] = c
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown replacement policy %q", s.kind)
	}
	return s, nil
}

func (s *refStore) contains(p model.PageID) bool {
	if s.kind == "" {
		i := s.hash.Hash(uint64(p))
		return s.full[i] && s.slot[i] == p
	}
	_, ok := s.at[p]
	return ok
}

// touch records a serve of the resident page p.
func (s *refStore) touch(p model.PageID) {
	switch s.kind {
	case replacement.LRU:
		s.stamp++
		s.key[s.at[p]] = s.stamp
	case replacement.Clock:
		s.key[s.at[p]] = 1
	case replacement.Belady:
		o := s.owner[p]
		s.served[o]++
		s.key[s.at[p]] = s.nextUse(p)
	}
}

// nextUse is the position of p's next reference in its owner's remaining
// trace, or the trace length when there is none.
func (s *refStore) nextUse(p model.PageID) int {
	o := s.owner[p]
	if j := slices.Index(s.traces[o][s.served[o]:], p); j >= 0 {
		return s.served[o] + j
	}
	return len(s.traces[o])
}

// ensureRoom evicts until n more pages fit and reports how many it
// evicted; direct-mapped slots evict on insert instead.
func (s *refStore) ensureRoom(n int) int {
	if s.kind == "" {
		return 0
	}
	evicted := 0
	for ; len(s.pages) > 0 && len(s.pages)+n > s.k; evicted++ {
		s.evict()
	}
	return evicted
}

func (s *refStore) evict() {
	var victim int
	switch s.kind {
	case replacement.LRU, replacement.FIFO:
		for i, st := range s.key {
			if st < s.key[victim] {
				victim = i
			}
		}
	case replacement.Clock:
		for s.key[s.hand] == 1 {
			s.key[s.hand] = 0
			s.hand = (s.hand + 1) % len(s.pages)
		}
		victim = s.hand
		delete(s.at, s.pages[victim])
		s.pages = slices.Delete(s.pages, victim, victim+1)
		s.key = slices.Delete(s.key, victim, victim+1)
		s.reindex(victim)
		if s.hand == len(s.pages) {
			s.hand = 0
		}
		return
	case replacement.Random:
		victim = s.rng.Intn(len(s.pages))
	case replacement.Belady:
		// Furthest next use in the owner's own stream; pages never used
		// again tie at one sentinel, and the first in slice order wins.
		best := -1
		for i, p := range s.pages {
			d := 1 << 30
			if o := s.owner[p]; s.key[i] < len(s.traces[o]) {
				d = s.key[i] - s.served[o]
			}
			if d > best {
				victim, best = i, d
			}
		}
	}
	delete(s.at, s.pages[victim])
	last := len(s.pages) - 1
	s.pages[victim], s.key[victim] = s.pages[last], s.key[last]
	s.pages, s.key = s.pages[:last], s.key[:last]
	if victim < last {
		s.at[s.pages[victim]] = victim
	}
}

// reindex refreshes at[] for pages[from:] after a CLOCK ring shift.
func (s *refStore) reindex(from int) {
	for i := from; i < len(s.pages); i++ {
		s.at[s.pages[i]] = i
	}
}

// insert makes a fetched page resident, reporting whether it displaced
// another (direct-mapped slot conflicts only).
func (s *refStore) insert(p model.PageID) (displaced bool, err error) {
	if s.contains(p) {
		return false, fmt.Errorf("page %d already resident", p)
	}
	if s.kind == "" {
		i := s.hash.Hash(uint64(p))
		displaced = s.full[i]
		s.slot[i], s.full[i] = p, true
		return displaced, nil
	}
	if len(s.pages) == s.k {
		return false, fmt.Errorf("store full (capacity %d), cannot insert page %d", s.k, p)
	}
	var key int
	switch s.kind {
	case replacement.LRU, replacement.FIFO:
		s.stamp++
		key = s.stamp
	case replacement.Clock:
		// A new page goes in just behind the hand, with its bit clear.
		s.pages = slices.Insert(s.pages, s.hand, p)
		s.key = slices.Insert(s.key, s.hand, 0)
		s.reindex(s.hand)
		if len(s.pages) > 1 {
			s.hand++
		}
		return false, nil
	case replacement.Belady:
		key = s.nextUse(p)
	}
	s.at[p] = len(s.pages)
	s.pages = append(s.pages, p)
	s.key = append(s.key, key)
	return false, nil
}
