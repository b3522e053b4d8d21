package detrand

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hbmsim/internal/snap"
)

// drawMix pulls an interleaved mix of values through r, so that every
// rand.Rand entry point the simulator's components use is exercised.
func drawMix(r *rand.Rand, rounds int) []any {
	var out []any
	for i := 0; i < rounds; i++ {
		out = append(out, r.Int63(), r.Uint64(), r.Intn(1+i), r.Intn(1<<40), r.Perm(1+i%7), r.Float64())
	}
	return out
}

// TestMatchesMathRand pins the property the golden makespans rest on:
// a rand.Rand over a counting Source yields exactly the values of one
// over math/rand's own source with the same seed.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		got := drawMix(rand.New(NewSource(seed)), 50)
		want := drawMix(rand.New(rand.NewSource(seed)), 50)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: counting source diverges from math/rand", seed)
		}
	}
}

// roundTrip saves src's position and loads it into a fresh source with
// the same seed, checking the snapshot's checksum on the way.
func roundTrip(t *testing.T, src *Source, seed int64) *Source {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	src.SaveState(w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got := NewSource(seed)
	got.Int63() // a position the restore must discard
	r := snap.NewReader(&buf)
	got.LoadState(r)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := got.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSaveLoadResumesStream(t *testing.T) {
	const seed = 42
	src := NewSource(seed)
	r := rand.New(src)
	drawMix(r, 20)
	got := roundTrip(t, src, seed)
	if got.Draws() != src.Draws() {
		t.Fatalf("restored position %d, want %d", got.Draws(), src.Draws())
	}
	if a, b := drawMix(rand.New(got), 20), drawMix(r, 20); !reflect.DeepEqual(a, b) {
		t.Fatal("restored source does not continue the saved stream")
	}
}

func TestFinishLoadWithoutLoadIsNoop(t *testing.T) {
	src, twin := NewSource(3), NewSource(3)
	for i := 0; i < 5; i++ {
		src.Int63()
		twin.Int63()
	}
	if err := src.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	if src.Draws() != 5 {
		t.Fatalf("FinishLoad without LoadState moved the position to %d", src.Draws())
	}
	if src.Uint64() != twin.Uint64() {
		t.Fatal("FinishLoad without LoadState changed the stream")
	}
	// A completed restore is not replayed twice.
	restored := roundTrip(t, src, 3)
	restored.Int63()
	if err := restored.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	if restored.Draws() != src.Draws()+1 {
		t.Fatalf("second FinishLoad replayed: position %d, want %d", restored.Draws(), src.Draws()+1)
	}
}

func TestSeedResetsDraws(t *testing.T) {
	src := NewSource(9)
	for i := 0; i < 4; i++ {
		src.Uint64()
	}
	src.Seed(11)
	if src.Draws() != 0 {
		t.Fatalf("Draws after Seed = %d, want 0", src.Draws())
	}
	if got, want := src.Int63(), rand.NewSource(11).Int63(); got != want {
		t.Fatalf("reseeded stream starts %d, want %d", got, want)
	}
	// A restore into the reseeded source replays from the new seed.
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	src.SaveState(w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	src.Int63()
	src.LoadState(snap.NewReader(&buf))
	if err := src.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	ref := rand.NewSource(11)
	ref.Int63()
	if got, want := src.Int63(), ref.Int63(); got != want || src.Draws() != 2 {
		t.Fatalf("after restore: drew %d at position %d, want %d at 2", got, src.Draws(), want)
	}
}
