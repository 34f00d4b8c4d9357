package trace

import (
	"bytes"
	"context"
	"flag"
	"io"
	"strings"
	"testing"

	"eyeballas/internal/obs"
)

func cliFlags(t *testing.T, args ...string) *obs.CLIFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := obs.BindCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStartCLI: no tracer exists unless -trace is set or the caller
// wants one; under -trace the root rides in ctx and Finish prints its
// tree, then the dropped-span count.
func TestStartCLI(t *testing.T) {
	ctx := context.Background()
	if got, root := StartCLI(ctx, cliFlags(t, "-metrics", "-"), "cli.run", 7, false); root != nil || got != ctx {
		t.Fatal("StartCLI opened a root without -trace or want")
	}

	flags := cliFlags(t, "-trace")
	tctx, root := StartCLI(ctx, flags, "cli.run", 7, false)
	if root == nil || FromContext(tctx) != root {
		t.Fatal("-trace: root missing from ctx")
	}
	FromContext(tctx).Child("stage").End()
	var stderr bytes.Buffer
	if err := flags.Finish(io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	if _, ended := root.Duration(); !ended {
		t.Fatal("Finish did not end the root")
	}
	out := stderr.String()
	for _, want := range []string{"cli.run", "[seed=7]", "\n  stage ", "dropped spans: 0\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-trace output lacks %q:\n%s", want, out)
		}
	}

	flags = cliFlags(t, "-metrics", "-")
	_, root = StartCLI(ctx, flags, "cli.run", 7, true)
	if root == nil {
		t.Fatal("want=true: no root")
	}
	stderr.Reset()
	if err := flags.Finish(io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Fatalf("want=true without -trace printed a tree:\n%s", stderr.String())
	}
}
