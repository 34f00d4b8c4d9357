package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eyeballas/internal/kde"
)

func TestRunDefaultSubject(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 1", "bandwidth 40", "PoP-level footprint"} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestRunExplicitASN(t *testing.T) {
	// Find the planted case-study subject's ASN via a first run, then
	// analyze it explicitly.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-asn", "330", "-bw", "40", "-multiscale"}, &out, io.Discard); err != nil {
		// ASN numbering is generator-dependent; skip rather than fail if
		// 330 isn't eligible at this seed.
		if strings.Contains(err.Error(), "not in the target dataset") {
			t.Skip("AS 330 not eligible at this seed")
		}
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "classified") || !strings.Contains(s, "multi-scale refinement") {
		t.Errorf("output malformed:\n%s", s)
	}
}

func TestRunUnknownASN(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-asn", "999999"}, &out, io.Discard); err == nil {
		t.Error("unknown ASN accepted")
	}
}

func TestParseBandwidths(t *testing.T) {
	got, err := parseBandwidths("10, 40,80")
	if err != nil || len(got) != 3 || got[0] != 10 || got[2] != 80 {
		t.Errorf("parse = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "-5", "10,,20", "0"} {
		if _, err := parseBandwidths(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestRunSurfaceExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "surface.dat")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-bw", "40", "-surface", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "bandwidth 40 km grid") {
		t.Errorf("surface header missing: %.80s", s)
	}
	// Rows are lon lat density triples.
	lines := strings.Split(s, "\n")
	dataLines := 0
	for _, l := range lines {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		if len(strings.Fields(l)) != 3 {
			t.Fatalf("bad surface row %q", l)
		}
		dataLines++
	}
	if dataLines < 100 {
		t.Errorf("only %d surface rows", dataLines)
	}
}

// TestRunBadInputs drives the user-error paths: unknown flags, bad
// bandwidth lists, bad fault specs, ASes outside the dataset.
func TestRunBadInputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"bandwidth not a number", []string{"-small", "-bw", "abc"}},
		{"bandwidth negative", []string{"-small", "-bw", "-5"}},
		{"bandwidth empty entry", []string{"-small", "-bw", ","}},
		{"faults spec without rate", []string{"-small", "-faults", "nonsense"}},
		{"faults unknown point", []string{"-small", "-faults", "bogus=0.1"}},
		{"asn outside dataset", []string{"-small", "-seed", "5", "-asn", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(context.Background(), tc.args, io.Discard, io.Discard); err == nil {
				t.Errorf("run(%q) accepted bad input", tc.args)
			}
		})
	}
}

// TestRunBandwidthEnvelope: -bw values outside the finite KDE envelope
// fail with the typed *kde.BandwidthError before any pipeline work.
func TestRunBandwidthEnvelope(t *testing.T) {
	for _, bw := range []string{"NaN", "+Inf", "-Inf", "0", "-1", "5000.0001", "1e9", "40,NaN"} {
		t.Run(bw, func(t *testing.T) {
			err := run(context.Background(), []string{"-small", "-seed", "5", "-bw=" + bw}, io.Discard, io.Discard)
			var be *kde.BandwidthError
			if !errors.As(err, &be) {
				t.Errorf("-bw=%s: got %v, want a *kde.BandwidthError", bw, err)
			}
		})
	}
}

// TestRunCancelledContext: a pre-cancelled context aborts the run with
// ctx.Err() before the pipeline produces anything.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-small", "-seed", "5"}, io.Discard, io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestRunWithFaultsStillAnalyzes: a mild fault plan degrades the input
// but the analysis still completes deterministically.
func TestRunWithFaultsStillAnalyzes(t *testing.T) {
	args := []string{"-small", "-seed", "5", "-faults", "geo-miss=0.05", "-fault-seed", "11"}
	var a, b bytes.Buffer
	if err := run(context.Background(), args, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same fault plan produced different analysis")
	}
	if !strings.Contains(a.String(), "bandwidth") {
		t.Errorf("faulted analysis incomplete:\n%s", a.String())
	}
}
