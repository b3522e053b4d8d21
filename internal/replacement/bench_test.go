package replacement

import (
	"math/rand"
	"testing"

	"hbmsim/internal/model"
)

// benchPolicy drives a policy with a realistic cache access mix: lookups,
// touches on hit, evict+insert on miss, at a fixed capacity.
func benchPolicy(b *testing.B, kind Kind) {
	b.Helper()
	const k = 1024
	pol, err := New(kind, 4*k, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pages := make([]model.PageID, 4*k)
	for i := range pages {
		pages[i] = model.PageID(rng.Intn(4 * k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pages[i%len(pages)]
		if pol.Contains(p) {
			pol.Touch(p)
			continue
		}
		if pol.Len() == k {
			pol.Evict()
		}
		pol.Insert(p)
	}
}

func BenchmarkLRU(b *testing.B)    { benchPolicy(b, LRU) }
func BenchmarkFIFO(b *testing.B)   { benchPolicy(b, FIFO) }
func BenchmarkClock(b *testing.B)  { benchPolicy(b, Clock) }
func BenchmarkRandom(b *testing.B) { benchPolicy(b, Random) }

func BenchmarkBelady(b *testing.B) {
	const k = 1024
	// A single long cyclic trace so next-use bookkeeping is exercised.
	tr := make([]model.PageID, 1<<16)
	for i := range tr {
		tr[i] = model.PageID(i % (4 * k))
	}
	pol := NewBelady([][]model.PageID{tr}, 4*k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := tr[i%len(tr)]
		if !pol.Contains(p) {
			if pol.Len() == k {
				pol.Evict()
			}
			pol.Insert(p)
		}
		pol.Touch(p)
	}
}
