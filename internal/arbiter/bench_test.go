package arbiter

import (
	"testing"

	"hbmsim/internal/model"
)

// benchArbiter measures steady-state push/pop throughput with a queue of
// ~p outstanding requests, the simulator's working regime.
func benchArbiter(b *testing.B, kind Kind) {
	b.Helper()
	const p = 256
	a := newArbiter(b, kind, p, 1)
	for c := 0; c < p; c++ {
		a.Push(model.Request{Core: model.CoreID(c), Seq: uint64(c)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	seq := uint64(p)
	for i := 0; i < b.N; i++ {
		r, ok := a.Pop()
		if !ok {
			b.Fatal("queue drained")
		}
		seq++
		r.Seq = seq
		a.Push(r)
	}
}

func BenchmarkFIFOArbiter(b *testing.B)     { benchArbiter(b, FIFO) }
func BenchmarkPriorityArbiter(b *testing.B) { benchArbiter(b, Priority) }
func BenchmarkRandomArbiter(b *testing.B)   { benchArbiter(b, Random) }

// BenchmarkFIFOGrow exercises the ring's grow path: each iteration
// starts from the 16-slot floor (p=1) and pushes far past it, forcing
// repeated doublings, then drains in order. This keeps the off-contract
// safety net honest alongside the steady-state benchmark above.
func BenchmarkFIFOGrow(b *testing.B) {
	const burst = 1024 // 16 -> 1024 is six doublings per iteration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := newFIFO(1)
		for s := uint64(0); s < burst; s++ {
			f.Push(model.Request{Seq: s})
		}
		for s := uint64(0); s < burst; s++ {
			r, ok := f.Pop()
			if !ok || r.Seq != s {
				b.Fatalf("pop %d: got (%v,%v)", s, r.Seq, ok)
			}
		}
	}
}

func BenchmarkPriorityRemap(b *testing.B) {
	const p = 256
	a := newArbiter(b, Priority, p, 1)
	for c := 0; c < p; c++ {
		a.Push(model.Request{Core: model.CoreID(c), Seq: uint64(c)})
	}
	perm := newPermuter(b, Dynamic, 2)
	pri := make([]int32, p)
	for i := range pri {
		pri[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm.Permute(pri)
		a.UpdatePriorities(pri)
	}
}
