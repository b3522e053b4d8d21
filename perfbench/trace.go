package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hbmsim/internal/tracing"
)

// tracer keeps every span of the traced script in memory; they are
// written out once, at exit.
type tracer struct {
	tr *tracing.Tracer
}

// spanRing bounds the in-memory span ring; the traced scripts stay well
// below it, and spanCheck fails a run that overflows it rather than
// reporting counts from a truncated ring.
const spanRing = 1 << 17

func newTracer() *tracer {
	return &tracer{tr: tracing.New(tracing.Options{RingSize: spanRing})}
}

// root opens the span under which one part of the traced script runs.
func (t *tracer) root() (context.Context, tracing.Span) {
	return t.tr.StartRoot(context.Background(), "bench.trace")
}

// spans returns every finished span.
func (t *tracer) spans() ([]tracing.SpanRecord, error) {
	recs := t.tr.Recent()
	if len(recs) >= spanRing {
		return nil, fmt.Errorf("span ring overflowed (%d spans); raise spanRing", len(recs))
	}
	return recs, nil
}

// named collects the durations, in ms, of the spans called name for
// which keep (when non-nil) returns true.
func named(recs []tracing.SpanRecord, name string, keep func(*tracing.SpanRecord) bool) samples {
	var out samples
	for i := range recs {
		if recs[i].Name == name && (keep == nil || keep(&recs[i])) {
			out.addDur(recs[i].Duration)
		}
	}
	return out
}

// layerOf maps a span name to the layer it times. The benchmark's own
// spans are "bench.<layer>.<call>"; the program's spans start with their
// package, and core.checkpoint.* belongs to the snapshot codec.
func layerOf(name string) string {
	parts := strings.Split(name, ".")
	if parts[0] == "bench" && len(parts) > 2 {
		return parts[1]
	}
	if parts[0] == "core" && len(parts) > 1 && parts[1] == "checkpoint" {
		return "snap"
	}
	return parts[0]
}

// printSelfTimes prints each layer's span count, total and self time. A
// span's self time is its duration minus the part its children cover.
func (t *tracer) printSelfTimes(out io.Writer) {
	recs := t.tr.Recent()
	child := map[tracing.SpanID]time.Duration{}
	for i := range recs {
		if !recs[i].Parent.IsZero() {
			child[recs[i].Parent] += recs[i].Duration
		}
	}
	type acc struct {
		n           int
		total, self time.Duration
	}
	layers := map[string]*acc{}
	for i := range recs {
		r := &recs[i]
		a := layers[layerOf(r.Name)]
		if a == nil {
			a = &acc{}
			layers[layerOf(r.Name)] = a
		}
		a.n++
		a.total += r.Duration
		if self := r.Duration - child[r.ID]; self > 0 {
			a.self += self
		}
	}
	fmt.Fprintln(out, "traced script, time per layer:")
	for _, name := range sortedKeys(layers) {
		a := layers[name]
		fmt.Fprintf(out, "  %-12s %6d spans  total %10.1f ms  self %10.1f ms\n",
			name, a.n, ms(a.total), ms(a.self))
	}
}

func (t *tracer) writePerfetto(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WritePerfetto(f, t.tr.Recent()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
