package pipeline

import (
	"context"
	"testing"

	"eyeballas/internal/geodb"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/trace"
)

// traceCrawl returns a small prefix of the shared fixture crawl — big
// enough to survive conditioning, small enough to keep the trace tests
// out of the differential harness's runtime class.
func traceCrawl(t *testing.T) (*p2p.Crawl, *Dataset, func(context.Context) (*Dataset, error)) {
	t.Helper()
	w, _, full := setup(t)
	crawl := full
	if len(crawl.Peers) > 10000 {
		crawl = &p2p.Crawl{Peers: full.Peers[:10000]}
	}
	origins := buildOrigins(t, w)
	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	build := func(ctx context.Context) (*Dataset, error) {
		return BuildStream(ctx, p2p.SlicePeers(crawl.Peers), dbA, dbB, origins, DefaultConfig())
	}
	ref, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return crawl, ref, build
}

// TestBuildTraceTree pins the stage-span shape a traced build hangs
// under a request trace: pipeline.build with locate (crawled attr),
// aggregate, and condition (ases attr) children, in stage order.
func TestBuildTraceTree(t *testing.T) {
	_, ref, build := traceCrawl(t)
	tracer := trace.New(trace.Options{Seed: 7})
	root := tracer.Start("test.build")
	ctx := trace.NewContext(context.Background(), root)
	ds, err := build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := root.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "pipeline.build" {
		t.Fatalf("root children = %+v, want one pipeline.build", tree.Children)
	}
	b := tree.Children[0]
	var names []string
	for _, c := range b.Children {
		names = append(names, c.Name)
	}
	want := []string{"locate", "aggregate", "condition"}
	if len(names) != len(want) {
		t.Fatalf("stage spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stage spans = %v, want %v", names, want)
		}
	}
	if got := attrValue(t, b.Children[0], "crawled"); got != "10000" {
		t.Errorf("locate crawled attr = %q, want 10000", got)
	}
	if got := attrValue(t, b.Children[2], "ases"); got == "" {
		t.Error("condition span lacks ases attr")
	}
	// The traced build's output is the reference output: tracing is
	// observation only.
	assertDatasetsIdentical(t, ref, ds)
	assertFunnelsIdentical(t, "traced", ref, ds)
}

func attrValue(t *testing.T, n obs.TreeNode, key string) string {
	t.Helper()
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestBuildUntracedIdentical: a build with no trace in the context
// produces a bit-identical dataset — the nil-span fast path cannot
// influence results.
func TestBuildUntracedIdentical(t *testing.T) {
	_, ref, build := traceCrawl(t)
	ds, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsIdentical(t, ref, ds)
}
