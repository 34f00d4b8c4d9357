package obs_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"strings"
	"testing"

	"eyeballas/internal/obs"
	"eyeballas/internal/trace"
)

// startTraced parses -trace into fresh CLI flags and opens the run's
// root span the way every command does.
func startTraced(t *testing.T) (*obs.CLIFlags, *trace.Span) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := obs.BindCLIFlags(fs)
	if err := fs.Parse([]string{"-trace"}); err != nil {
		t.Fatal(err)
	}
	_, root := trace.StartCLI(context.Background(), c, "pipeline.build", 42, false)
	if root == nil {
		t.Fatal("-trace given but StartCLI opened no root")
	}
	return c, root
}

// TestWriteTrace: the -trace output of a real trace.Span tree names
// every span, marks a child left open, indents children under the
// root, and ends with the dropped-span count.
func TestWriteTrace(t *testing.T) {
	c, root := startTraced(t)
	root.Child("locate").End()
	root.Child("aggregate") // left open on purpose

	var stderr bytes.Buffer
	if err := c.Finish(io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stderr.String()
	for _, want := range []string{"pipeline.build", "locate", "aggregate", "(open)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d trace lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "pipeline.build") {
		t.Fatalf("root not first:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "  locate") || !strings.HasPrefix(lines[2], "  aggregate") {
		t.Fatalf("children not indented:\n%s", out)
	}
	if lines[3] != "dropped spans: 0" {
		t.Fatalf("last line = %q, want the dropped-span count", lines[3])
	}
}

// TestWriteTraceMatchesTree proves -trace prints a trace.Span through
// the shared encoder: the tree part of the output is byte-identical to
// WriteTree over the ended root's Tree.
func TestWriteTraceMatchesTree(t *testing.T) {
	c, root := startTraced(t)
	root.Child("locate").End()

	var direct, viaTree bytes.Buffer
	if err := c.Finish(io.Discard, &direct); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTree(&viaTree, []obs.TreeNode{root.Tree()}); err != nil {
		t.Fatal(err)
	}
	viaTree.WriteString("dropped spans: 0\n")
	if !bytes.Equal(direct.Bytes(), viaTree.Bytes()) {
		t.Fatalf("-trace diverged from WriteTree over Tree:\n--- -trace ---\n%s--- WriteTree ---\n%s",
			direct.String(), viaTree.String())
	}
}
