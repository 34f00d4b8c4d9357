package eyeball

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// buildDataset runs the pipeline over w at default crawl and
// conditioning parameters.
func buildDataset(w *World, seed uint64) (*Dataset, error) {
	ds, _, err := BuildTargetDataset(context.Background(), w, DefaultCrawlConfig(), DefaultPipelineConfig(), seed)
	return ds, err
}

// smallExperiments builds the test-scale experiments environment.
func smallExperiments(seed uint64) (*Experiments, error) {
	wcfg, pcfg, err := ScaleConfigs(ScaleSmall, seed)
	if err != nil {
		return nil, err
	}
	w, err := GenerateWorldWithConfig(wcfg)
	if err != nil {
		return nil, err
	}
	return NewExperiments(context.Background(), w, seed, pcfg)
}

var apiShared struct {
	once sync.Once
	w    *World
	ds   *Dataset
	err  error
}

func apiSetup(t *testing.T) (*World, *Dataset) {
	t.Helper()
	apiShared.once.Do(func() {
		w, err := GenerateSmallWorld(7)
		if err != nil {
			apiShared.err = err
			return
		}
		ds, err := buildDataset(w, 7)
		if err != nil {
			apiShared.err = err
			return
		}
		apiShared.w, apiShared.ds = w, ds
	})
	if apiShared.err != nil {
		t.Fatal(apiShared.err)
	}
	return apiShared.w, apiShared.ds
}

func TestPublicWorkflow(t *testing.T) {
	w, ds := apiSetup(t)
	if len(ds.Records()) == 0 {
		t.Fatal("empty dataset")
	}
	rec := ds.Records()[0]
	fp, err := EstimateFootprint(w, rec.Samples, FootprintOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Bandwidth != DefaultBandwidthKm {
		t.Errorf("default bandwidth = %v", fp.Bandwidth)
	}
	if len(fp.PoPs) == 0 {
		t.Errorf("no PoPs for AS %d", rec.ASN)
	}
	if !strings.HasPrefix(fp.CityList(), "[") {
		t.Errorf("CityList = %q", fp.CityList())
	}
	cls := ClassifyLevel(rec.Samples)
	if cls.Level < LevelCity || cls.Level > LevelGlobal {
		t.Errorf("classification out of range: %+v", cls)
	}
}

// TestEstimateFootprintBandwidthEnvelope: a bandwidth outside the
// finite (0, 5000] km envelope surfaces as a typed *BandwidthError;
// zero still selects the paper's 40 km default.
func TestEstimateFootprintBandwidthEnvelope(t *testing.T) {
	w, ds := apiSetup(t)
	rec := ds.Records()[0]
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 5000.0001, 1e9} {
		_, err := EstimateFootprint(w, rec.Samples, FootprintOptions{BandwidthKm: bw})
		var be *BandwidthError
		if !errors.As(err, &be) {
			t.Errorf("bw=%v: got %v, want a *BandwidthError", bw, err)
		}
	}
}

func TestPublicMatch(t *testing.T) {
	w, ds := apiSetup(t)
	rec := ds.Records()[0]
	fp, err := EstimateFootprint(w, rec.Samples, FootprintOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ref []GeoPoint
	for _, p := range fp.PoPs {
		ref = append(ref, p.City.Loc)
	}
	m := MatchPoPs(fp.PoPs, ref, MatchRadiusKm)
	if !m.Superset() || m.DiscMatchedFrac() != 1 {
		t.Errorf("self-match failed: %+v", m)
	}
}

func TestPublicConfigs(t *testing.T) {
	if DefaultWorldConfig(1).NTier1 < SmallWorldConfig(1).NTier1 {
		t.Error("default world should not be smaller than the small one")
	}
	if DefaultCrawlConfig().Scale <= 0 {
		t.Error("crawl config invalid")
	}
	if DefaultPipelineConfig().MinPeers <= 0 {
		t.Error("pipeline config invalid")
	}
	if Gazetteer().Len() < 400 {
		t.Error("gazetteer too small")
	}
}

func TestPublicExperiments(t *testing.T) {
	env, err := smallExperiments(7)
	if err != nil {
		t.Fatal(err)
	}
	tbl := RunTable1(env)
	if tbl.TotalASes == 0 {
		t.Error("empty Table 1")
	}
	f2, err := RunFigure2(env, []float64{40})
	if err != nil {
		t.Fatal(err)
	}
	if RunSection5(f2).MeanReference <= 0 {
		t.Error("section 5 stats empty")
	}
	cs, err := RunCaseStudy(env)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Class.Level != LevelCity {
		t.Errorf("case-study level = %v", cs.Class.Level)
	}
}

func TestPublicSnapshotRoundTrip(t *testing.T) {
	w, _ := apiSetup(t)
	var buf bytes.Buffer
	if err := SaveWorld(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := LoadWorld(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.ASNs()) != len(w.ASNs()) || w2.Seed != w.Seed {
		t.Fatal("public snapshot round trip lost data")
	}
	// A dataset built over the reloaded world matches the original.
	ds2, err := buildDataset(w2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds1, _ := apiSetupDataset(t)
	if len(ds2.Order) != len(ds1.Order) || ds2.TotalPeers != ds1.TotalPeers {
		t.Errorf("pipeline over reloaded world differs: %d/%d ASes, %d/%d peers",
			len(ds2.Order), len(ds1.Order), ds2.TotalPeers, ds1.TotalPeers)
	}
}

func apiSetupDataset(t *testing.T) (*Dataset, *World) {
	t.Helper()
	w, ds := apiSetup(t)
	return ds, w
}
