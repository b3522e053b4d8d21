package replacement

import "hbmsim/internal/model"

// TouchAll on the LRU/FIFO list exploits that with no interleaved
// evictions or inserts, only each page's *last* touch determines the
// final recency order: touching a page again later re-moves it to the
// MRU end, erasing any earlier move. The batch is scanned backwards
// collecting first (i.e. last-in-order) occurrences, then the distinct
// pages are relinked in forward last-occurrence order — O(batch) stamp
// reads plus O(distinct) list surgery instead of O(batch) unlink/relink
// pairs. FIFO (touchMoves false) returns immediately, as Touch does.
func (l *listPolicy) TouchAll(pages []model.PageID) {
	if !l.touchMoves {
		return
	}
	if l.stamp == nil {
		// Distinct pages per batch are bounded by the universe, so one
		// backing array serves both the stamps and the collected batch
		// and every later call is allocation-free.
		u := len(l.resident)
		buf := make([]uint32, 2*u)
		l.stamp = buf[:u:u]
		l.batch = buf[u:u]
	}
	l.stampGen++
	if l.stampGen == 0 { // uint32 wrap: stale stamps could alias, reset
		clear(l.stamp)
		l.stampGen = 1
	}
	l.batch = l.batch[:0]
	for i := len(pages) - 1; i >= 0; i-- {
		p := uint32(pages[i])
		if l.stamp[p] == l.stampGen {
			continue
		}
		l.stamp[p] = l.stampGen
		l.batch = append(l.batch, p)
	}
	for i := len(l.batch) - 1; i >= 0; i-- {
		p := int32(l.batch[i])
		if !l.resident[p] || l.tail == p {
			continue
		}
		l.unlink(p)
		l.pushBack(p)
	}
}

// TouchAll on CLOCK sets each touched resident page's reference bit;
// bits are idempotent, so the loop is already optimal.
func (c *clockPolicy) TouchAll(pages []model.PageID) {
	for _, p := range pages {
		if c.resident[p] {
			c.ref[p] = true
		}
	}
}

// TouchAll on Random is a no-op, as Touch is.
func (r *randomPolicy) TouchAll([]model.PageID) {}

// TouchAll on the clairvoyant policy replays each touch: every Touch
// advances the owning core's stream position and the page's occurrence
// cursor, so the calls are not collapsible — but each is O(1) amortised
// over the occurrence list.
func (b *beladyPolicy) TouchAll(pages []model.PageID) {
	for _, p := range pages {
		b.Touch(p)
	}
}
