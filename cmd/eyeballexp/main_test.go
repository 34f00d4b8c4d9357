package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-exp", "table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "environment:") || !strings.Contains(s, "Table 1") {
		t.Errorf("output malformed:\n%s", s)
	}
	if strings.Contains(s, "case study") {
		t.Error("selection leaked other experiments")
	}
}

func TestRunAllWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"table1.txt", "table1.csv", "figure1.txt", "figure2.txt", "figure2.csv",
		"peergeo.txt", "stability.txt", "density.txt", "services.txt", "crawlquality.txt",
		"section5.txt", "dimes.txt", "casestudy.txt",
		"multiscale.txt", "bias.txt", "fusion.txt", "predict.txt",
		"degradation.txt", "degradation.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
		}
	}
	if !strings.Contains(out.String(), "artifacts written") {
		t.Error("no confirmation line")
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(manifest), "\n"), "\n")
	if want := "# eyeballexp -seed 5 -small -out " + filepath.Base(dir); lines[0] != want {
		t.Errorf("MANIFEST command = %q, want %q", lines[0], want)
	}
	if len(lines) != 20 {
		t.Errorf("MANIFEST lists %d artifacts, want 19:\n%s", len(lines)-1, manifest)
	}
	for _, line := range lines[1:] {
		sum, name, _ := strings.Cut(line, "  ")
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != sum {
			t.Errorf("MANIFEST line %q: file hashes to %s", line, got)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-exp", "nonsense"}, &out, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunBadInputs drives the user-error paths: unknown flags and
// experiments, bad fault specs, missing or corrupt world snapshots.
func TestRunBadInputs(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.snap")
	if err := os.WriteFile(corrupt, []byte("not a world snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"unknown experiment", []string{"-small", "-seed", "5", "-exp", "nonsense"}},
		{"faults spec without rate", []string{"-small", "-faults", "nonsense"}},
		{"faults unknown point", []string{"-small", "-faults", "bogus=0.1"}},
		{"faults rate out of range", []string{"-small", "-faults", "crawl-loss=1.5"}},
		{"missing world file", []string{"-world", filepath.Join(dir, "absent.snap")}},
		{"corrupt world file", []string{"-world", corrupt}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(context.Background(), tc.args, io.Discard, io.Discard); err == nil {
				t.Errorf("run(%q) accepted bad input", tc.args)
			}
		})
	}
}

// TestRunCancelledContext: a pre-cancelled context aborts environment
// generation with ctx.Err().
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-small", "-seed", "5", "-exp", "table1"}, io.Discard, io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}
