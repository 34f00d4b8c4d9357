package trace

import "testing"

// The span primitive's cost in both states: a live tracer opening and
// ending one root span, and the disabled (nil-tracer, branch-only) path
// instrumented code takes when no trace is carried.

func BenchmarkSpanStartEndEnabled(b *testing.B) {
	tr := New(Options{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("bench.span").End()
	}
}

func BenchmarkSpanStartEndDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("bench.span").End()
	}
}
