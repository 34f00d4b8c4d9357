package kde

import (
	"context"
	"fmt"
	"math"
	"testing"

	"eyeballas/internal/geo"
	"eyeballas/internal/obs"
	"eyeballas/internal/parallel"
	"eyeballas/internal/rng"
)

// determinismSamples builds a clustered sample field wide enough that the
// convolution decomposes into many row/column blocks.
func determinismSamples(n int, spreadKm float64) []geo.XY {
	src := rng.New(4242)
	centers := []geo.XY{
		{X: 0, Y: 0},
		{X: spreadKm * 0.4, Y: spreadKm * 0.2},
		{X: spreadKm * 0.8, Y: spreadKm * 0.9},
		{X: spreadKm * 0.1, Y: spreadKm * 0.7},
	}
	out := make([]geo.XY, n)
	for i := range out {
		c := centers[src.Intn(len(centers))]
		out[i] = geo.XY{X: c.X + src.Norm(0, 30), Y: c.Y + src.Norm(0, 30)}
	}
	return out
}

// TestEstimateDeterministicAcrossWorkers is the §3.1 engine's determinism
// guarantee: the density surface must be *bit-identical* for any worker
// count, because the seeded experiments golden-compare downstream values
// (peaks, partitions, PoP densities) that would drift under any float
// reordering.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	samples := determinismSamples(20000, 2000)
	ref, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.W < 64 || ref.H < 64 {
		t.Fatalf("grid %dx%d too small to exercise block decomposition", ref.W, ref.H)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if g.W != ref.W || g.H != ref.H || g.Cell != ref.Cell {
				t.Fatalf("geometry differs: %dx%d cell %v vs %dx%d cell %v",
					g.W, g.H, g.Cell, ref.W, ref.H, ref.Cell)
			}
			for i := range ref.Data {
				if math.Float64bits(g.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("cell %d differs bitwise: %x vs %x (%.17g vs %.17g)",
						i, math.Float64bits(g.Data[i]), math.Float64bits(ref.Data[i]),
						g.Data[i], ref.Data[i])
				}
			}
		})
	}
}

// TestEstimateDeterministicFineGrid repeats the bit-identity check on a
// finer grid (more, smaller blocks) and a default-workers run.
func TestEstimateDeterministicFineGrid(t *testing.T) {
	samples := determinismSamples(5000, 800)
	opts := Options{BandwidthKm: 15, CellKm: 3}
	o1 := opts
	o1.Workers = 1
	ref, err := Estimate(context.Background(), samples, o1)
	if err != nil {
		t.Fatal(err)
	}
	oN := opts // Workers = 0 → GOMAXPROCS
	g, err := Estimate(context.Background(), samples, oN)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(ref.Data[i]) {
			t.Fatalf("cell %d differs bitwise with default workers", i)
		}
	}
}

// TestEstimateDeterministicUnderRegistry extends the bit-identity
// guarantee to an active observability registry (with the pool's timing
// hooks installed): counters/histograms are timing side channels
// and must not perturb a single bit of the density surface, at any
// worker count.
func TestEstimateDeterministicUnderRegistry(t *testing.T) {
	samples := determinismSamples(20000, 2000)
	ref, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			reg := obs.New()
			parallel.SetMetrics(parallel.MetricsFrom(reg))
			defer parallel.SetMetrics(nil)
			g, err := Estimate(context.Background(), samples, Options{BandwidthKm: 40, Workers: workers, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			if g.W != ref.W || g.H != ref.H {
				t.Fatalf("geometry differs under registry: %dx%d vs %dx%d", g.W, g.H, ref.W, ref.H)
			}
			for i := range ref.Data {
				if math.Float64bits(g.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("cell %d differs bitwise with metrics on: %x vs %x",
						i, math.Float64bits(g.Data[i]), math.Float64bits(ref.Data[i]))
				}
			}
			if reg.Counter("eyeball_kde_estimates_total").Value() != 1 {
				t.Fatal("estimate counter did not move")
			}
		})
	}
}
