package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/kde"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/serve"
	"eyeballas/internal/snapshot"
)

// writeTestSnapshot builds a one-AS snapshot on disk for CLI tests.
func writeTestSnapshot(t *testing.T) string {
	t.Helper()
	milan, ok := gazetteer.Default().Find("Milan", "IT")
	if !ok {
		t.Fatal("gazetteer lost Milan")
	}
	samples := make([]core.Sample, 0, 120)
	for i := 0; i < 120; i++ {
		samples = append(samples, core.Sample{
			Loc: geo.Point{
				Lat: milan.Loc.Lat + 0.02*float64(i%7) - 0.06,
				Lon: milan.Loc.Lon + 0.02*float64(i%5) - 0.04,
			},
			City: "Milan", Country: "IT", GeoErrKm: float64(i % 25),
		})
	}
	rec := &pipeline.ASRecord{
		ASN: 64500, Users: 120, Samples: samples,
		PeersByApp: map[p2p.App]int{p2p.Kad: 120},
		Class:      core.Classification{Level: astopo.LevelCity, Place: "Milan/IT", Share: 1},
		Region:     gazetteer.EU,
	}
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{Seed: 42, Label: "cli-test"},
		Dataset: &pipeline.Dataset{
			ASes:       map[astopo.ASN]*pipeline.ASRecord{64500: rec},
			Order:      []astopo.ASN{64500},
			TotalPeers: 120,
			Funnel:     obs.NewFunnel("cli-test"),
		},
	}
	path := t.TempDir() + "/cli.snap"
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestRunRequiresSnapFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), nil, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-snap is required") {
		t.Fatalf("err = %v, want -snap is required", err)
	}
}

// TestRunBandwidthEnvelope: a default -bw outside the finite KDE
// envelope fails at startup with the typed *kde.BandwidthError, before
// the snapshot is read, instead of failing every default-bandwidth
// footprint request.
func TestRunBandwidthEnvelope(t *testing.T) {
	for _, bw := range []string{"NaN", "+Inf", "-Inf", "0", "-1", "5000.0001", "1e9"} {
		err := run(context.Background(), []string{"-snap", t.TempDir() + "/absent.snap", "-bw=" + bw}, io.Discard, io.Discard)
		var be *kde.BandwidthError
		if !errors.As(err, &be) {
			t.Errorf("-bw=%s: got %v, want a *kde.BandwidthError", bw, err)
		}
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"-snap", t.TempDir() + "/absent.snap"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "loading") {
		t.Fatalf("err = %v, want loading error", err)
	}
}

// TestPrintFootprintMatchesRender drives the offline -print-footprint
// mode and checks the bytes against serve.RenderFootprint — the same
// equivalence CI proves against eyeballpipe -footprint.
func TestPrintFootprintMatchesRender(t *testing.T) {
	path := writeTestSnapshot(t)
	var out, errOut bytes.Buffer
	err := run(context.Background(),
		[]string{"-snap", path, "-print-footprint", "64500", "-bw", "40"},
		&out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.RenderFootprint(context.Background(),
		gazetteer.Default(), snap.Dataset.AS(64500), 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-print-footprint bytes differ from RenderFootprint:\n%s\nvs\n%s", out.Bytes(), want)
	}
	if !strings.Contains(errOut.String(), "loaded ") {
		t.Errorf("missing load summary on stderr: %q", errOut.String())
	}
}

func TestPrintFootprintUnknownAS(t *testing.T) {
	path := writeTestSnapshot(t)
	var out, errOut bytes.Buffer
	err := run(context.Background(),
		[]string{"-snap", path, "-print-footprint", "7"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
}
