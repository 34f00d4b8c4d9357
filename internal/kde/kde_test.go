package kde

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"eyeballas/internal/geo"
	"eyeballas/internal/rng"
)

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(context.Background(), nil, DefaultOptions()); err == nil {
		t.Error("empty samples should error")
	}
	if _, err := Estimate(context.Background(), []geo.XY{{X: 0, Y: 0}}, Options{BandwidthKm: -1}); err == nil {
		t.Error("negative bandwidth should error")
	}
	big := []geo.XY{{X: 0, Y: 0}, {X: 1e6, Y: 1e6}}
	if _, err := Estimate(context.Background(), big, Options{BandwidthKm: 1, MaxCells: 1000}); err == nil {
		t.Error("oversized domain should error")
	}
}

// TestBandwidthEnvelope: every bandwidth outside the finite
// (0, MaxBandwidthKm] envelope fails with a *BandwidthError before any
// grid is sized — NaN and +Inf would size a degenerate grid, and 1e9 a
// tiny one whose peak→city search stalls.
func TestBandwidthEnvelope(t *testing.T) {
	pts := []geo.XY{{X: 0, Y: 0}, {X: 10, Y: 5}}
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 5000.0001, 1e9} {
		err := CheckBandwidth(bw)
		var be *BandwidthError
		if !errors.As(err, &be) || !(be.Km == bw || math.IsNaN(bw)) {
			t.Errorf("CheckBandwidth(%v) = %v, want a *BandwidthError carrying the value", bw, err)
		}
		if _, err := Estimate(context.Background(), pts, Options{BandwidthKm: bw}); !errors.As(err, &be) {
			t.Errorf("Estimate(bw=%v) = %v, want a *BandwidthError", bw, err)
		}
	}
	for _, bw := range []float64{0.001, 40, MaxBandwidthKm} {
		if err := CheckBandwidth(bw); err != nil {
			t.Errorf("CheckBandwidth(%v) = %v, want nil", bw, err)
		}
	}
	if _, err := Estimate(context.Background(), pts, Options{BandwidthKm: MaxBandwidthKm}); err != nil {
		t.Errorf("Estimate at the envelope's edge: %v", err)
	}
}

func TestEstimateIntegratesToOne(t *testing.T) {
	src := rng.New(5)
	samples := make([]geo.XY, 500)
	for i := range samples {
		samples[i] = geo.XY{X: src.Norm(0, 50), Y: src.Norm(0, 30)}
	}
	g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 20})
	if err != nil {
		t.Fatal(err)
	}
	if integral := g.Integral(); math.Abs(integral-1) > 0.01 {
		t.Errorf("density integral = %v, want ~1", integral)
	}
	for _, v := range g.Data {
		if v < 0 {
			t.Fatal("negative density")
		}
	}
}

func TestEstimateSinglePointPeak(t *testing.T) {
	at := geo.XY{X: 37, Y: -12}
	g, err := Estimate(context.Background(), []geo.XY{at}, Options{BandwidthKm: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, i, j := g.Max()
	c := g.Center(i, j)
	if c.DistanceKm(at) > g.Cell*1.5 {
		t.Errorf("peak at %v, want near %v", c, at)
	}
	peaks := g.Peaks(0)
	if len(peaks) != 1 {
		t.Errorf("single point produced %d peaks", len(peaks))
	}
}

func TestEstimateTwoWellSeparatedClusters(t *testing.T) {
	src := rng.New(6)
	var samples []geo.XY
	for i := 0; i < 400; i++ {
		samples = append(samples, geo.XY{X: src.Norm(0, 8), Y: src.Norm(0, 8)})
	}
	for i := 0; i < 200; i++ {
		samples = append(samples, geo.XY{X: src.Norm(300, 8), Y: src.Norm(0, 8)})
	}
	g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 20})
	if err != nil {
		t.Fatal(err)
	}
	max, _, _ := g.Max()
	peaks := g.Peaks(max * 0.01)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2: %+v", len(peaks), peaks)
	}
	// Higher peak belongs to the larger cluster (near x=0).
	if math.Abs(peaks[0].XY.X) > 30 {
		t.Errorf("dominant peak at %v, want near x=0", peaks[0].XY)
	}
	if math.Abs(peaks[1].XY.X-300) > 30 {
		t.Errorf("secondary peak at %v, want near x=300", peaks[1].XY)
	}
	if peaks[0].Value <= peaks[1].Value {
		t.Error("larger cluster should have higher density")
	}
}

// TestEstimateBandwidthMerging reproduces the paper's Figure 1 phenomenon
// in miniature: two clusters 100 km apart are distinct at a small
// bandwidth and merge into one peak at a large bandwidth.
func TestEstimateBandwidthMerging(t *testing.T) {
	src := rng.New(7)
	var samples []geo.XY
	for i := 0; i < 300; i++ {
		samples = append(samples, geo.XY{X: src.Norm(0, 10), Y: src.Norm(0, 10)})
		samples = append(samples, geo.XY{X: src.Norm(100, 10), Y: src.Norm(0, 10)})
	}
	count := func(bw float64) int {
		g, err := Estimate(context.Background(), samples, Options{BandwidthKm: bw})
		if err != nil {
			t.Fatal(err)
		}
		max, _, _ := g.Max()
		return len(g.Peaks(max * 0.01))
	}
	if n := count(15); n != 2 {
		t.Errorf("bw=15: %d peaks, want 2", n)
	}
	if n := count(80); n != 1 {
		t.Errorf("bw=80: %d peaks, want 1", n)
	}
}

// TestEstimateMatchesDirect cross-checks the binned estimator against the
// exact per-sample evaluation at the mode.
func TestEstimateMatchesDirect(t *testing.T) {
	src := rng.New(8)
	samples := make([]geo.XY, 300)
	for i := range samples {
		samples[i] = geo.XY{X: src.Norm(0, 25), Y: src.Norm(10, 25)}
	}
	g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 20, CellKm: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []geo.XY{{X: 0, Y: 10}, {X: 20, Y: 0}, {X: -30, Y: 30}} {
		i, j, ok := g.CellOf(probe)
		if !ok {
			t.Fatalf("probe %v outside grid", probe)
		}
		binned := g.At(i, j)
		exact := DensityAt(samples, 20, g.Center(i, j))
		if exact == 0 {
			continue
		}
		if rel := math.Abs(binned-exact) / exact; rel > 0.05 {
			t.Errorf("probe %v: binned %v vs exact %v (rel %.3f)", probe, binned, exact, rel)
		}
	}
}

// TestEstimateTranslationEquivariance: shifting all samples shifts the
// density surface without changing its shape.
func TestEstimateTranslationEquivariance(t *testing.T) {
	src := rng.New(9)
	samples := make([]geo.XY, 200)
	for i := range samples {
		samples[i] = geo.XY{X: src.Norm(0, 15), Y: src.Norm(0, 15)}
	}
	shifted := make([]geo.XY, len(samples))
	const dx, dy = 500, -200
	for i, s := range samples {
		shifted[i] = geo.XY{X: s.X + dx, Y: s.Y + dy}
	}
	opts := Options{BandwidthKm: 20, CellKm: 5}
	g1, err := Estimate(context.Background(), samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Estimate(context.Background(), shifted, opts)
	if err != nil {
		t.Fatal(err)
	}
	m1, i1, j1 := g1.Max()
	m2, i2, j2 := g2.Max()
	// Binned estimation is translation-equivariant up to re-binning of
	// samples that sit on cell boundaries: allow a small relative slack.
	if math.Abs(m1-m2)/m1 > 5e-3 {
		t.Errorf("max changed under translation: %v vs %v", m1, m2)
	}
	c1 := g1.Center(i1, j1)
	c2 := g2.Center(i2, j2)
	if math.Abs(c2.X-c1.X-dx) > opts.CellKm || math.Abs(c2.Y-c1.Y-dy) > opts.CellKm {
		t.Errorf("mode moved from %v to %v, want shift (%v,%v)", c1, c2, dx, dy)
	}
}

func TestEstimateMassConservedUnderBandwidth(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 20 + int(seed%50)
		samples := make([]geo.XY, n)
		for i := range samples {
			samples[i] = geo.XY{X: src.Range(-100, 100), Y: src.Range(-100, 100)}
		}
		for _, bw := range []float64{10, 40, 80} {
			g, err := Estimate(context.Background(), samples, Options{BandwidthKm: bw})
			if err != nil {
				return false
			}
			if math.Abs(g.Integral()-1) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDensityAtProperties(t *testing.T) {
	samples := []geo.XY{{X: 0, Y: 0}}
	peak := DensityAt(samples, 10, geo.XY{X: 0, Y: 0})
	want := 1 / (2 * math.Pi * 100)
	if math.Abs(peak-want) > 1e-12 {
		t.Errorf("peak density = %v, want %v", peak, want)
	}
	if DensityAt(samples, 10, geo.XY{X: 50, Y: 0}) >= peak {
		t.Error("density should decay with distance")
	}
	if DensityAt(nil, 10, geo.XY{}) != 0 || DensityAt(samples, 0, geo.XY{}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}
