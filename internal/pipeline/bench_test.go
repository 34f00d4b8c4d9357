package pipeline

import (
	"context"
	"sync"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/geodb"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
)

// benchEnv holds everything BuildStream consumes, built once: the world,
// a crawl, both geolocation databases, and a merged origin table.
type benchEnv struct {
	crawl    *p2p.Crawl
	dbA, dbB *geodb.DB
	origins  *bgp.OriginTable
}

var benchSetupOnce = sync.OnceValues(func() (*benchEnv, error) {
	w, err := astopo.Generate(astopo.SmallConfig(71))
	if err != nil {
		return nil, err
	}
	crawl, err := p2p.Run(context.Background(), w, p2p.DefaultConfig(), seedSource(71))
	if err != nil {
		return nil, err
	}
	routing := bgp.ComputeRouting(w)
	var ribs []*bgp.RIB
	for _, a := range w.ASes() {
		if a.Kind != astopo.KindTier1 {
			continue
		}
		rib, err := bgp.BuildRIB(w, routing, a.ASN)
		if err != nil {
			return nil, err
		}
		if ribs = append(ribs, rib); len(ribs) == 3 {
			break
		}
	}
	return &benchEnv{
		crawl:   crawl,
		dbA:     geodb.NewGeoCity(w),
		dbB:     geodb.NewIPLoc(w),
		origins: bgp.NewOriginTable(ribs...),
	}, nil
})

func benchBuild(b *testing.B, reg *obs.Registry) {
	b.Helper()
	env, err := benchSetupOnce()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 1 // isolate the scalar stage cost from pool scheduling
	cfg.Obs = reg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildStream(context.Background(), p2p.SlicePeers(env.crawl.Peers), env.dbA, env.dbB, env.origins, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildObsOff / BenchmarkBuildObsOn are the acceptance pair for
// the observability overhead budget: the full geolocate → origin → dedup
// → condition stage chain with no registry vs. a live one (funnel,
// histograms, shard-aggregated lookup counter all armed). The
// ratio on/off is the end-to-end instrumentation overhead and must stay
// ≤3% (see scripts/bench_obs.sh, which computes it into BENCH_pr3.json).
func BenchmarkBuildObsOff(b *testing.B) { benchBuild(b, nil) }

func BenchmarkBuildObsOn(b *testing.B) { benchBuild(b, obs.New()) }
