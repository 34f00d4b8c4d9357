package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"
	"time"

	"eyeballas"
	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/client"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/geodb"
	"eyeballas/internal/grid"
	"eyeballas/internal/kde"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/serve"
	"eyeballas/internal/snapshot"
	"eyeballas/internal/trace"
)

// Replay sizes of a traced run: the build layers replay the first
// crawlPrefix peers of the seed's crawl, the render layers the first
// renderKeys keys of the seed's serve-cold sequence.
const (
	crawlPrefix = 100_000
	renderKeys  = 60
)

// sink keeps replayed results live so the compiler cannot drop a call.
var sink int

// coreAlpha is core's default peak threshold (peaks above alpha·Dmax).
const coreAlpha = 0.01

// layers runs every in-process layer replay of a traced run against the
// seed's world and the workload's artifact, recording a span around each
// call, and returns the per-layer numbers.
func (r *runner) layers(ctx context.Context, tr *tracer, artPath string) (map[string]float64, error) {
	m := map[string]float64{}
	root, _ := tr.open("layers", 0)
	defer tr.close(root)
	if err := r.buildLayers(ctx, tr, root, m); err != nil {
		return nil, fmt.Errorf("build layers: %w", err)
	}
	data, err := os.ReadFile(artPath)
	if err != nil {
		return nil, err
	}
	var snap *snapshot.Snapshot
	d := tr.time("snapshot.decode", root, func(int64) { snap, err = snapshot.Decode(data) })
	if err != nil {
		return nil, err
	}
	m["snapshot.decode_s"] = d.Seconds()
	var enc []byte
	m["snapshot.encode_s"] = tr.time("snapshot.encode", root, func(int64) { enc = snapshot.Encode(snap) }).Seconds()
	m["snapshot.bytes"] = float64(len(enc))
	data, enc = nil, nil
	ks, err := keyspaceOf(snap)
	if err != nil {
		return nil, err
	}
	if err := renderLayers(ctx, tr, root, snap, ks, r.seed, m); err != nil {
		return nil, fmt.Errorf("render layers: %w", err)
	}
	if err := handlerLayers(tr, root, snap, artPath, ks, m); err != nil {
		return nil, fmt.Errorf("handler layers: %w", err)
	}
	return m, nil
}

// buildLayers replays the build's layers over a prefix of the seed's
// crawl of the default-scale artifactSeed world, the build workload's
// input.
func (r *runner) buildLayers(ctx context.Context, tr *tracer, root int64, m map[string]float64) error {
	w, err := eyeball.GenerateWorld(artifactSeed)
	if err != nil {
		return err
	}
	var prefix []p2p.Peer
	total := 0
	d := tr.time("p2p.crawl", root, func(int64) {
		var st p2p.PeerStream
		st, err = pipeline.CrawlSource(w, p2p.DefaultConfig(), r.seed).Stream(ctx)
		if err != nil {
			return
		}
		buf := make([]p2p.Peer, 4096)
		for {
			n, e := st.Next(buf)
			total += n
			if len(prefix) < crawlPrefix {
				prefix = append(prefix, buf[:min(n, crawlPrefix-len(prefix))]...)
			}
			if errors.Is(e, io.EOF) {
				return
			}
			if e != nil {
				err = e
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["p2p.crawl_s"] = d.Seconds()
	m["p2p.peers"] = float64(total)

	var origins *bgp.OriginTable
	d = tr.time("bgp.origin_table", root, func(int64) { origins, err = originTable(w) })
	if err != nil {
		return err
	}
	m["bgp.origin_table_s"] = d.Seconds()
	originD := tr.time("bgp.origin_of", root, func(int64) {
		for _, p := range prefix {
			a, _ := origins.OriginOf(p.IP)
			sink += int(a)
		}
	})
	trieD := tr.time("bgp.origin_of_uncompiled", root, func(int64) {
		for _, p := range prefix {
			a, _ := origins.OriginOfUncompiled(p.IP)
			sink += int(a)
		}
	})
	n := float64(len(prefix))
	m["bgp.origin_of_ns"] = float64(originD) / n
	m["bgp.lpm_speedup"] = float64(trieD) / float64(originD)

	dbA, dbB := geodb.NewGeoCity(w), geodb.NewIPLoc(w)
	locateD := tr.time("geodb.locate", root, func(int64) {
		for _, p := range prefix {
			sink += len(dbA.Locate(p.IP, p.TrueLoc).City)
			sink += len(dbB.Locate(p.IP, p.TrueLoc).City)
		}
	})
	m["geodb.locate_ns"] = float64(locateD) / (2 * n)
	m["geodb.calls"] = 2 * n

	cfg := pipeline.DefaultConfig()
	build := func(name string, cfg pipeline.Config) (*pipeline.Dataset, time.Duration, uint64, error) {
		var ds *pipeline.Dataset
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := tr.time(name, root, func(int64) {
			ds, err = pipeline.BuildStream(ctx, p2p.SlicePeers(prefix), geodb.NewGeoCity(w), geodb.NewIPLoc(w), origins, cfg)
		})
		runtime.ReadMemStats(&after)
		return ds, d, after.TotalAlloc - before.TotalAlloc, err
	}
	ds, par, alloc, err := build("pipeline.build_stream", cfg)
	if err != nil {
		return err
	}
	one := cfg
	one.Workers = 1
	_, serial, _, err := build("pipeline.build_stream_1w", one)
	if err != nil {
		return err
	}
	withObs := cfg
	withObs.Obs = obs.New()
	_, observed, _, err := build("pipeline.build_stream_obs", withObs)
	if err != nil {
		return err
	}
	m["pipeline.build_stream_s"] = par.Seconds()
	m["pipeline.build_stream_1w_s"] = serial.Seconds()
	m["pipeline.parallel_speedup"] = serial.Seconds() / par.Seconds()
	m["pipeline.self_s"] = (serial - locateD - originD).Seconds()
	m["pipeline.kept_frac"] = float64(ds.TotalPeers) / n
	m["pipeline.alloc_mib"] = float64(alloc) / (1 << 20)
	m["pipeline.obs_ratio"] = observed.Seconds() / par.Seconds()
	return nil
}

// originTable builds the merged origin table from the world's first
// three tier-1 vantage RIBs, as the pipeline does.
func originTable(w *astopo.World) (*bgp.OriginTable, error) {
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
	if len(ribs) == 0 {
		return nil, errors.New("world has no tier-1 vantage points")
	}
	return bgp.NewOriginTable(ribs...), nil
}

// gcCPU reads the runtime's cumulative GC CPU seconds and the CPU
// seconds the process used (capacity less idle) to measure them against.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return v[0], v[1] - v[2]
}

// renderLayers replays the footprint render path key by key: the whole
// serve.RenderFootprint, then core.EstimateFootprintCtx, then its KDE,
// peak and component steps on their own. Self times are the parent
// span minus the replayed steps.
func renderLayers(ctx context.Context, tr *tracer, root int64, snap *snapshot.Snapshot, ks *keyspace, seed uint64, m map[string]float64) error {
	gaz := gazetteer.Default()
	mx := newMixer(mixCold, ks, newRNG("serve-cold", seed, "keys.nominal"))
	var render, coreD, kdeD, peaksD, compD time.Duration
	var allocs, bytes uint64
	// The runtime updates its CPU accounting when a GC cycle ends, so the
	// window opens and closes on one.
	runtime.GC()
	gc0, cpu0 := gcCPU()
	for i := 0; i < renderKeys; i++ {
		o := mx.next()
		rec := snap.Dataset.AS(astopo.ASN(o.asn))
		key, _ := tr.open("render.key", root)
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		render += tr.time("serve.render", key, func(int64) {
			var body []byte
			body, err = serve.RenderFootprint(ctx, gaz, rec, o.bw, 1, nil)
			sink += len(body)
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		coreD += tr.time("core.estimate", key, func(int64) {
			_, err = core.EstimateFootprintCtx(ctx, gaz, rec.Samples, core.Options{BandwidthKm: o.bw, Workers: 1})
		})
		if err != nil {
			return err
		}
		pts := make([]geo.Point, len(rec.Samples))
		for j, s := range rec.Samples {
			pts[j] = s.Loc
		}
		centroid, _ := geo.Centroid(pts)
		xys := geo.NewProjection(centroid).ProjectAll(pts)
		var g *grid.Grid
		kdeD += tr.time("kde.estimate", key, func(int64) {
			g, err = kde.Estimate(ctx, xys, kde.Options{BandwidthKm: o.bw, Workers: 1})
		})
		if err != nil {
			return err
		}
		dmax, _, _ := g.Max()
		floor := coreAlpha * dmax
		peaksD += tr.time("grid.peaks", key, func(int64) { sink += len(g.Peaks(floor)) })
		compD += tr.time("grid.components", key, func(int64) { sink += len(g.Components(floor)) })
		tr.close(key)
	}
	runtime.GC()
	gc1, cpu1 := gcCPU()
	k := float64(renderKeys)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / k }
	m["serve.render_us"] = us(render)
	m["serve.encode_us"] = us(render - coreD)
	m["kde.estimate_us"] = us(kdeD)
	m["grid.peaks_us"] = us(peaksD)
	m["grid.components_us"] = us(compD)
	m["core.self_us"] = us(coreD - kdeD - peaksD - compD)
	m["serve.render_allocs"] = float64(allocs) / k
	m["serve.render_kib"] = float64(bytes) / k / 1024
	if cpu1 <= cpu0 {
		return fmt.Errorf("runtime CPU accounting did not advance over the replay (%g to %g s)", cpu0, cpu1)
	}
	m["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	return nil
}

// handlerLayers measures the serve handler in-process with the shipped
// defaults (tracing and access log on), and the client against it over
// loopback, with testing.Benchmark.
func handlerLayers(tr *tracer, root int64, snap *snapshot.Snapshot, artPath string, ks *keyspace, m map[string]float64) error {
	newHandler := func(traced bool) http.Handler {
		opts := serve.Options{Obs: obs.New(), AccessLog: slog.New(slog.NewJSONHandler(io.Discard, nil))}
		if traced {
			opts.Tracer = trace.New(trace.Options{Recorder: trace.NewRecorder(trace.RecorderOptions{
				Recent: 128, SlowThreshold: 250 * time.Millisecond,
			})})
		}
		s := serve.New(opts)
		s.Load(snap, artPath)
		return s.Handler()
	}
	hitURL := "/v1/footprint/" + strconv.Itoa(ks.TopASNs[0])
	get := func(h http.Handler, url string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: HTTP %d", url, rec.Code)
		}
		return nil
	}
	// testing.Benchmark reads its run length from the test flags.
	testing.Init()
	if err := flag.Set("test.benchtime", "300ms"); err != nil {
		return err
	}
	var benchErr error
	bench := func(name string, fn func() error) testing.BenchmarkResult {
		var res testing.BenchmarkResult
		tr.time(name, root, func(int64) {
			res = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						benchErr = err
						b.SkipNow()
					}
				}
			})
		})
		return res
	}
	traced, plain := newHandler(true), newHandler(false)
	for _, h := range []http.Handler{traced, plain} {
		if err := get(h, hitURL); err != nil {
			return err
		}
	}
	hit := bench("serve.handler.hit", func() error { return get(traced, hitURL) })
	hitPlain := bench("serve.handler.hit_untraced", func() error { return get(plain, hitURL) })
	lookup := bench("serve.handler.lookup", func() error { return get(traced, "/v1/lookup?ip="+ks.IPs[0]) })
	as := bench("serve.handler.as", func() error { return get(traced, "/v1/as/"+strconv.Itoa(ks.ASNs[0])) })
	if benchErr != nil {
		return benchErr
	}
	us := func(r testing.BenchmarkResult) float64 { return float64(r.NsPerOp()) / 1000 }
	m["serve.handler_hit_us"] = us(hit)
	m["serve.handler_lookup_us"] = us(lookup)
	m["serve.handler_as_us"] = us(as)
	m["serve.handler_hit_allocs"] = float64(hit.AllocsPerOp())
	m["serve.handler_hit_kib"] = float64(hit.AllocedBytesPerOp()) / 1024
	m["serve.traced_extra_allocs"] = float64(hit.AllocsPerOp() - hitPlain.AllocsPerOp())
	m["serve.warmed_speedup"] = m["serve.render_us"] / m["serve.handler_hit_us"]

	ts := httptest.NewServer(traced)
	defer ts.Close()
	hc := ts.Client()
	cl := client.New(ts.URL, client.Options{HTTPClient: hc, MaxAttempts: 1})
	ctx := context.Background()
	asn := ks.TopASNs[0]
	viaClient := bench("client.footprint", func() error {
		_, err := cl.Footprint(ctx, asn, 0)
		return err
	})
	direct := bench("client.direct", func() error {
		resp, err := hc.Get(ts.URL + hitURL)
		if err != nil {
			return err
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		return err
	})
	if benchErr != nil {
		return benchErr
	}
	m["client.footprint_us"] = us(viaClient)
	m["client.overhead_ratio"] = float64(viaClient.NsPerOp()) / float64(direct.NsPerOp())
	return nil
}
