package kde

import (
	"context"
	"math"
	"strings"
	"testing"

	"eyeballas/internal/geo"
	"eyeballas/internal/obs"
	"eyeballas/internal/trace"
)

func traceSamples() []geo.XY {
	samples := make([]geo.XY, 0, 300)
	for i := 0; i < 300; i++ {
		samples = append(samples, geo.XY{
			X: 5 * math.Sin(float64(i)),
			Y: 5 * math.Cos(float64(3*i+1)),
		})
	}
	return samples
}

// estimateTraced runs one Estimate under a fresh request trace and
// returns the finished root's tree.
func estimateTraced(t *testing.T, workers int) (*trace.Span, obs.TreeNode) {
	t.Helper()
	tracer := trace.New(trace.Options{Seed: 11})
	root := tracer.Start("test.estimate")
	ctx := trace.NewContext(context.Background(), root)
	opts := DefaultOptions()
	opts.BandwidthKm = 40
	opts.Workers = workers
	if _, err := Estimate(ctx, traceSamples(), opts); err != nil {
		t.Fatal(err)
	}
	root.End()
	return root, root.Tree()
}

// TestEstimateTraceTree pins the block-granularity span shape one
// traced estimate hangs under a request: kde.estimate (samples/cells
// attrs) → bin, blur_horizontal (rows blocks), blur_vertical (cols
// blocks), with every block span carrying its lo/hi range.
func TestEstimateTraceTree(t *testing.T) {
	_, tree := estimateTraced(t, 4)
	if len(tree.Children) != 1 || tree.Children[0].Name != "kde.estimate" {
		t.Fatalf("root children = %+v, want one kde.estimate", tree.Children)
	}
	est := tree.Children[0]
	var attrs []string
	for _, a := range est.Attrs {
		attrs = append(attrs, a.Key)
	}
	if len(attrs) != 2 || attrs[0] != "samples" || attrs[1] != "cells" {
		t.Fatalf("kde.estimate attrs = %v, want [samples cells]", attrs)
	}
	if est.Attrs[0].Val != "300" {
		t.Errorf("samples attr = %q, want 300", est.Attrs[0].Val)
	}
	var names []string
	for _, c := range est.Children {
		names = append(names, c.Name)
	}
	want := []string{"bin", "blur_horizontal", "blur_vertical"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("kde.estimate children = %v, want %v", names, want)
	}
	for i, pass := range est.Children[1:] {
		blockName := []string{"rows", "cols"}[i]
		if len(pass.Children) == 0 {
			t.Fatalf("%s has no block spans", pass.Name)
		}
		for _, b := range pass.Children {
			if b.Name != blockName {
				t.Errorf("%s block named %q, want %q", pass.Name, b.Name, blockName)
			}
			if attrKeyVal(b, "lo") == "" || attrKeyVal(b, "hi") == "" {
				t.Errorf("%s block %v lacks lo/hi attrs", pass.Name, b.Attrs)
			}
		}
	}
}

func attrKeyVal(n obs.TreeNode, key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// stripDurations zeroes every duration in a tree so two runs can be
// compared structurally.
func stripDurations(n obs.TreeNode) obs.TreeNode {
	n.DurNS = 0
	for i := range n.Children {
		n.Children[i] = stripDurations(n.Children[i])
	}
	for i := range n.Events {
		n.Events[i].AtNS = 0
	}
	return n
}

// TestEstimateTraceScheduleIndependent: ChildSeq keys block spans by
// their starting row/column, so the rendered tree is byte-identical no
// matter how the worker pool interleaves — serial and 8-way runs agree.
func TestEstimateTraceScheduleIndependent(t *testing.T) {
	_, serial := estimateTraced(t, 1)
	var a, b strings.Builder
	if err := obs.WriteTree(&a, []obs.TreeNode{stripDurations(serial)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, wide := estimateTraced(t, 8)
		b.Reset()
		if err := obs.WriteTree(&b, []obs.TreeNode{stripDurations(wide)}); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("workers=8 run %d tree differs from serial:\n%s\nvs\n%s", i, b.String(), a.String())
		}
	}
}

// TestEstimateOutputIdenticalTraced: the traced surface is bit-for-bit
// the untraced surface — tracing observes the convolution, it cannot
// perturb it.
func TestEstimateOutputIdenticalTraced(t *testing.T) {
	opts := DefaultOptions()
	opts.BandwidthKm = 40
	opts.Workers = 4
	plain, err := Estimate(context.Background(), traceSamples(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.Options{Seed: 11})
	root := tracer.Start("test.estimate")
	traced, err := Estimate(trace.NewContext(context.Background(), root), traceSamples(), opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(plain.Data) != len(traced.Data) {
		t.Fatalf("grid sizes differ: %d vs %d", len(plain.Data), len(traced.Data))
	}
	for i := range plain.Data {
		if math.Float64bits(plain.Data[i]) != math.Float64bits(traced.Data[i]) {
			t.Fatalf("cell %d differs bitwise: %v vs %v", i, plain.Data[i], traced.Data[i])
		}
	}
}

// TestMetricsJSONBoundedWithoutTrace: with a live registry and no span
// in the context, an estimate leaves only metrics behind, so the JSON
// snapshot (what /metrics.json serves) does not grow with the number of
// estimates — only a few counter digits move — and still records every
// estimate in eyeball_kde_estimate_seconds.
func TestMetricsJSONBoundedWithoutTrace(t *testing.T) {
	reg := obs.New()
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Obs = reg
	estimate := func(n int) int {
		for i := 0; i < n; i++ {
			if _, err := Estimate(context.Background(), traceSamples(), opts); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := reg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(b.String(), `"spans"`) {
			t.Fatalf("metrics JSON carries spans:\n%s", b.String())
		}
		return b.Len()
	}
	first := estimate(1)
	after := estimate(199)
	if after-first > 128 {
		t.Fatalf("metrics JSON grew %d B over 199 more estimates (%d -> %d)", after-first, first, after)
	}
	var count int64
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "eyeball_kde_estimate_seconds" {
			count = h.Total
		}
	}
	if count != 200 {
		t.Fatalf("eyeball_kde_estimate_seconds count = %d, want 200", count)
	}
}
