package replacement

import (
	"math/rand"

	"hbmsim/internal/detrand"
	"hbmsim/internal/model"
)

// listPolicy implements LRU and FIFO as an intrusive doubly-linked list
// whose node for page p *is* index p — just prev/next/resident arrays.
// The head is the eviction victim and Insert appends at the tail. With
// touchMoves set (LRU), Touch moves the page to the tail; without it
// (FIFO), Touch is a no-op, so eviction order is insertion order.
type listPolicy struct {
	touchMoves bool

	prev     []int32
	next     []int32
	resident []bool
	head     int32 // victim end; -1 when empty
	tail     int32 // MRU end; -1 when empty
	n        int

	// TouchAll scratch (see batch.go): stamp[p] == stampGen marks page p
	// as already collected in the current batch; both share one backing
	// array, allocated lazily on the first batched touch.
	stamp    []uint32
	stampGen uint32
	batch    []uint32
}

func newList(touchMoves bool, universe int) *listPolicy {
	return &listPolicy{
		touchMoves: touchMoves,
		prev:       make([]int32, universe),
		next:       make([]int32, universe),
		resident:   make([]bool, universe),
		head:       nilNode,
		tail:       nilNode,
	}
}

func (l *listPolicy) Len() int { return l.n }

func (l *listPolicy) Contains(page model.PageID) bool { return l.resident[page] }

// pushBack links page i at the tail (MRU end).
func (l *listPolicy) pushBack(i int32) {
	l.prev[i] = l.tail
	l.next[i] = nilNode
	if l.tail != nilNode {
		l.next[l.tail] = i
	} else {
		l.head = i
	}
	l.tail = i
}

// unlink detaches page i from the list.
func (l *listPolicy) unlink(i int32) {
	p, nx := l.prev[i], l.next[i]
	if p != nilNode {
		l.next[p] = nx
	} else {
		l.head = nx
	}
	if nx != nilNode {
		l.prev[nx] = p
	} else {
		l.tail = p
	}
}

func (l *listPolicy) Insert(page model.PageID) {
	i := int32(page)
	if l.resident[i] {
		// Insert of an already-tracked page is a contract violation by the
		// caller; treat it as a Touch to stay safe.
		l.Touch(page)
		return
	}
	l.resident[i] = true
	l.n++
	l.pushBack(i)
}

func (l *listPolicy) Touch(page model.PageID) {
	if !l.touchMoves {
		return
	}
	i := int32(page)
	if !l.resident[i] || l.tail == i {
		return
	}
	l.unlink(i)
	l.pushBack(i)
}

func (l *listPolicy) Evict() (model.PageID, bool) {
	if l.head == nilNode {
		return 0, false
	}
	i := l.head
	l.unlink(i)
	l.resident[i] = false
	l.n--
	return model.PageID(i), true
}

// clockPolicy implements CLOCK (second chance): the circular sweep list
// is held in prev/next arrays indexed by page, with the reference bits
// in a flat bool slice.
type clockPolicy struct {
	prev     []int32
	next     []int32
	ref      []bool
	resident []bool
	hand     int32 // current sweep position; -1 when empty
	n        int
}

func newClock(universe int) *clockPolicy {
	return &clockPolicy{
		prev:     make([]int32, universe),
		next:     make([]int32, universe),
		ref:      make([]bool, universe),
		resident: make([]bool, universe),
		hand:     nilNode,
	}
}

func (c *clockPolicy) Len() int { return c.n }

func (c *clockPolicy) Contains(page model.PageID) bool { return c.resident[page] }

func (c *clockPolicy) Insert(page model.PageID) {
	i := int32(page)
	if c.resident[i] {
		c.ref[i] = true
		return
	}
	c.resident[i] = true
	c.ref[i] = false
	c.n++
	if c.hand == nilNode {
		c.prev[i] = i
		c.next[i] = i
		c.hand = i
		return
	}
	// Insert just behind the hand, i.e. at the "end" of the sweep order,
	// mirroring a freshly loaded page in a real CLOCK.
	prev := c.prev[c.hand]
	c.prev[i] = prev
	c.next[i] = c.hand
	c.next[prev] = i
	c.prev[c.hand] = i
}

func (c *clockPolicy) Touch(page model.PageID) {
	if c.resident[page] {
		c.ref[page] = true
	}
}

// Evict sweeps the hand, clearing reference bits, and evicts the first
// page found with its bit clear (the second-chance rule).
func (c *clockPolicy) Evict() (model.PageID, bool) {
	if c.hand == nilNode {
		return 0, false
	}
	i := c.hand
	for c.ref[i] {
		c.ref[i] = false
		i = c.next[i]
	}
	if c.next[i] == i { // last page
		c.hand = nilNode
	} else {
		prev, next := c.prev[i], c.next[i]
		c.next[prev] = next
		c.prev[next] = prev
		c.hand = next
	}
	c.resident[i] = false
	c.n--
	return model.PageID(i), true
}

// randomPolicy evicts a uniformly random resident page: the resident
// pages are a slice with a flat page->index table (-1 when absent), and
// Evict draws one index from a checkpointable rng, then swap-removes.
type randomPolicy struct {
	pages []model.PageID
	index []int32 // position in pages, or -1 when absent
	src   *detrand.Source
	rng   *rand.Rand
}

func newRandom(universe int, seed int64) *randomPolicy {
	idx := make([]int32, universe)
	for i := range idx {
		idx[i] = -1
	}
	src := detrand.NewSource(seed)
	return &randomPolicy{
		index: idx,
		src:   src,
		rng:   rand.New(src),
	}
}

func (r *randomPolicy) Len() int { return len(r.pages) }

func (r *randomPolicy) Contains(page model.PageID) bool { return r.index[page] >= 0 }

func (r *randomPolicy) Insert(page model.PageID) {
	if r.index[page] >= 0 {
		return
	}
	r.index[page] = int32(len(r.pages))
	r.pages = append(r.pages, page)
}

func (r *randomPolicy) Touch(model.PageID) {}

func (r *randomPolicy) Evict() (model.PageID, bool) {
	if len(r.pages) == 0 {
		return 0, false
	}
	i := r.rng.Intn(len(r.pages))
	page := r.pages[i]
	last := len(r.pages) - 1
	moved := r.pages[last]
	r.pages[i] = moved
	r.index[moved] = int32(i)
	r.pages = r.pages[:last]
	r.index[page] = -1
	return page, true
}
