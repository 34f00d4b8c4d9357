package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceDetail mirrors trace.Detail's JSON envelope closely enough to
// assert on -trace-out output without importing internal packages.
type traceDetail struct {
	TraceID     string    `json:"trace_id"`
	Traceparent string    `json:"traceparent"`
	DurationNS  int64     `json:"duration_ns"`
	Spans       int       `json:"spans"`
	Root        traceNode `json:"root"`
}

type traceNode struct {
	Name     string      `json:"name"`
	Children []traceNode `json:"children"`
}

// TestTraceOut: one offline build emits a parseable canonical trace —
// the eyeballpipe.build root over pipeline.run with origin-table and
// build stages, the streamed crawl counted on the build's locate
// stage — and the trace ID derives from -seed.
func TestTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "build-trace.json")
	var stderr bytes.Buffer
	if err := run(context.Background(),
		[]string{"-small", "-seed", "5", "-trace-out", out},
		io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var d traceDetail
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("trace-out is not valid JSON: %v\n%s", err, raw)
	}
	if d.Root.Name != "eyeballpipe.build" {
		t.Errorf("root span = %q, want eyeballpipe.build", d.Root.Name)
	}
	if len(d.TraceID) != 32 {
		t.Errorf("trace_id = %q, want 32 hex digits", d.TraceID)
	}
	if !strings.Contains(d.Traceparent, d.TraceID) {
		t.Errorf("traceparent %q does not embed trace_id %q", d.Traceparent, d.TraceID)
	}
	if d.Spans < 5 {
		t.Errorf("spans = %d, want the stage tree (>= 5)", d.Spans)
	}
	if d.DurationNS <= 0 {
		t.Errorf("duration_ns = %d, want positive", d.DurationNS)
	}
	if len(d.Root.Children) != 1 || d.Root.Children[0].Name != "pipeline.run" {
		t.Fatalf("root children = %+v, want one pipeline.run", d.Root.Children)
	}
	var stages []string
	for _, c := range d.Root.Children[0].Children {
		stages = append(stages, c.Name)
	}
	if joined := strings.Join(stages, ","); joined != "bgp.origin_table,pipeline.build" {
		t.Errorf("pipeline.run stages = %v, want [bgp.origin_table pipeline.build]", stages)
	}
	if !strings.Contains(stderr.String(), "wrote build trace") {
		t.Errorf("stderr lacks trace summary: %q", stderr.String())
	}

	// Same seed, second run: the trace's identity (IDs and shape,
	// not timings) reproduces.
	out2 := filepath.Join(t.TempDir(), "build-trace-2.json")
	if err := run(context.Background(),
		[]string{"-small", "-seed", "5", "-trace-out", out2},
		io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	var d2 traceDetail
	if err := json.Unmarshal(raw2, &d2); err != nil {
		t.Fatal(err)
	}
	if d2.TraceID != d.TraceID {
		t.Errorf("seeded trace IDs differ across runs: %s vs %s", d.TraceID, d2.TraceID)
	}
	if d2.Spans != d.Spans {
		t.Errorf("span counts differ across runs: %d vs %d", d.Spans, d2.Spans)
	}
}

// preorder lists a trace tree's span names, parents before children.
func preorder(n traceNode, out []string) []string {
	out = append(out, n.Name)
	for _, c := range n.Children {
		out = preorder(c, out)
	}
	return out
}

// textTreeNames parses the span names, in print order, out of the
// -trace tree on stderr: the lines from the root's through the
// dropped-span line. Each line is indentation, the name, padding, the
// duration, and optional [k=v ...] attributes.
func textTreeNames(t *testing.T, stderr, root string) []string {
	t.Helper()
	var names []string
	in := false
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, root+" ") {
			in = true
		}
		if !in {
			continue
		}
		if strings.HasPrefix(line, "dropped spans: ") {
			return names
		}
		if strings.HasSuffix(line, "]") {
			line = line[:strings.LastIndex(line, " [")]
		}
		line = strings.TrimSpace(line)
		names = append(names, strings.TrimSpace(line[:strings.LastIndex(line, " ")]))
	}
	t.Fatalf("no complete -trace tree rooted at %s on stderr:\n%s", root, stderr)
	return nil
}

// TestTraceOneTree: -trace prints one rooted tree, and it is the tree
// -trace-out writes — the same span names in the same pre-order — at
// every worker count and on every run.
func TestTraceOneTree(t *testing.T) {
	var first []string
	for i, workers := range []string{"1", "1", "2", "2"} {
		out := filepath.Join(t.TempDir(), "f.json")
		var stderr bytes.Buffer
		if err := run(context.Background(),
			[]string{"-small", "-seed", "42", "-quiet", "-workers", workers, "-trace", "-trace-out", out},
			io.Discard, &stderr); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var d traceDetail
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatal(err)
		}
		text := textTreeNames(t, stderr.String(), d.Root.Name)
		fromJSON := preorder(d.Root, nil)
		if strings.Join(text, "|") != strings.Join(fromJSON, "|") {
			t.Fatalf("run %d (-workers %s): -trace names %q differ from -trace-out names %q", i, workers, text, fromJSON)
		}
		if first == nil {
			first = text
			for _, want := range []string{"pipeline.run", "bgp.origin_table", "bgp.routing", "bgp.ribs",
				"pipeline.build", "locate", "p2p.crawl", "aggregate", "condition"} {
				if !strings.Contains("|"+strings.Join(text, "|")+"|", "|"+want+"|") {
					t.Fatalf("-trace tree lacks %s: %q", want, text)
				}
			}
			if n := strings.Count(strings.Join(text, "|"), "bgp.build_rib "); n != 3 {
				t.Fatalf("-trace tree has %d bgp.build_rib spans, want 3: %q", n, text)
			}
			continue
		}
		if strings.Join(text, "|") != strings.Join(first, "|") {
			t.Fatalf("run %d (-workers %s): span order %q differs from the first run's %q", i, workers, text, first)
		}
	}
}
