package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"eyeballas"
	"eyeballas/internal/astopo"
	"eyeballas/internal/core"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/serve"
	"eyeballas/internal/snapshot"
)

// runner holds one benchmark invocation's settings.
type runner struct {
	w        workload
	seed     uint64
	seconds  time.Duration
	conns    int
	pipeBin  string
	serveBin string
	work     string // working files of this run
	cache    string // artifacts and digests shared by runs of this code
	results  string // result and span files
	log      io.Writer
}

// artifact identifies the snapshot a serve phase ran against.
type artifact struct {
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// outcome is one pass over a workload.
type outcome struct {
	e2e        map[string]float64
	layer      map[string]float64 // per-layer numbers the pass itself yields
	pcts       map[string]pct     // percentiles with their sample counts
	attempted  int
	failed     int
	checksFail []string
	art        artifact
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, pcts: map[string]pct{}}
}

// check records one output check.
func (o *outcome) check(name string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.checksFail = append(o.checksFail, name+": "+err.Error())
	}
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: "+format+"\n", args...)
}

// e2e runs the workload once: the build phase, the set-up starts and
// the serve phase. tr is nil for the untraced pass.
func (r *runner) e2e(ctx context.Context, tr *tracer) (*outcome, error) {
	o := newOutcome()
	root, _ := tr.open("run."+r.w.name, 0)
	defer tr.close(root)

	built, err := r.buildPhase(ctx, o, tr, root)
	if err != nil {
		return nil, err
	}
	var ks *keyspace
	var expect map[fpKey][]byte
	if r.w.serve {
		fx, err := r.fixture(ctx, r.w.plan.mix)
		if err != nil {
			return nil, err
		}
		o.art, ks, expect = fx.Art, fx.Keys, fx.expected()
	} else {
		o.art = built.art
		if built.snap == nil {
			return nil, fmt.Errorf("%s does not decode: %v", built.art.Path, o.checksFail)
		}
		ks, err = keyspaceOf(built.snap)
		if err != nil {
			return nil, err
		}
		tr.time("check.offline_render", root, func(int64) {
			expect, err = renderAll(ctx, built.snap, footprintKeys(r.w.plan.mix, ks), r.conns)
		})
		if err != nil {
			return nil, err
		}
	}
	built.snap = nil
	runtime.GC()
	debug.FreeOSMemory()

	srv, err := r.setupPhase(ctx, o, tr, root)
	if err != nil {
		return nil, err
	}
	serveErr := r.servePhase(ctx, srv, ks, expect, o, tr, root)
	if err := srv.stop(); err != nil && serveErr == nil {
		serveErr = fmt.Errorf("eyeballserve exit: %w", err)
	}
	if serveErr != nil {
		return nil, serveErr
	}
	return o, nil
}

// built is the build phase's result.
type built struct {
	art  artifact
	snap *snapshot.Snapshot // decoded artifact (default-scale builds only)
}

// buildPhase times the workload's eyeballpipe builds and checks their
// artifacts: one default-scale build, or smallBuilds test-scale builds
// of which the medians count. A build's wall time counts in the CPU time
// the host left (see unstolen). Every build crawls the artifactSeed world
// with the workload seed, so seeds change the crawl, not the size of the
// world.
func (r *runner) buildPhase(ctx context.Context, o *outcome, tr *tracer, parent int64) (*built, error) {
	scale, builds := "default", 1
	if r.w.serve {
		scale, builds = "small", smallBuilds
	}
	world, err := r.world(scale)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.work, fmt.Sprintf("build-%s-%d.snap", scale, r.seed))
	var walls, cpus, steals, rss []float64
	var last *built
	for i := 0; i < builds; i++ {
		args := []string{"-world", world, "-seed", strconv.FormatUint(r.seed, 10), "-snapshot", path, "-quiet"}
		var res pipeResult
		var err error
		host := startSteal(time.Now())
		tr.time("child.eyeballpipe", parent, func(int64) { res, err = runPipe(ctx, r.pipeBin, args...) })
		samples := host.finish()
		o.attempted++
		if err != nil {
			return nil, err
		}
		end := samples[len(samples)-1].at
		walls = append(walls, unstolen(res.wall.Seconds(), samples, 0, end))
		cpus = append(cpus, res.cpu.Seconds())
		steals = append(steals, stealBetween(samples, 0, end))
		rss = append(rss, float64(res.maxRSS)/1024)
		tr.time("check.artifact", parent, func(int64) { last, err = r.checkArtifact(o, path, scale) })
		if err != nil {
			return nil, err
		}
	}
	o.e2e["build_s"] = median(walls)
	o.e2e["build_cpu_s"] = median(cpus)
	o.layer["host.steal_frac.build"] = median(steals)
	o.layer["build.peak_rss_mib"] = median(rss)
	return last, nil
}

// world returns the path of the artifactSeed world at scale, saving it
// the first time this code needs it.
func (r *runner) world(scale string) (string, error) {
	path := filepath.Join(r.cache, fmt.Sprintf("world-%s-%d.json", scale, artifactSeed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	gen := eyeball.GenerateWorld
	if scale == "small" {
		gen = eyeball.GenerateSmallWorld
	}
	w, err := gen(artifactSeed)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := eyeball.SaveWorld(&buf, w); err != nil {
		return "", err
	}
	return path, writeAtomic(path, buf.Bytes())
}

// checkArtifact runs the build output checks on one artifact: the
// funnel ledger conserves, the artifact re-encodes byte-identically
// after Decode, and its digest matches every earlier build of the same
// seed by this code.
func (r *runner) checkArtifact(o *outcome, path, scale string) (*built, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	b := &built{art: artifact{Path: filepath.Base(path), Bytes: int64(len(data)), SHA256: hex.EncodeToString(sum[:])}}
	snap, err := snapshot.Decode(data)
	o.check("artifact decodes", err)
	if err != nil {
		return b, nil
	}
	o.check("funnel ledger conserves", ledgerCheck(snap))
	o.check("re-encode is byte-identical", func() error {
		if !bytes.Equal(snapshot.Encode(snap), data) {
			return errors.New("snapshot.Encode(Decode(artifact)) differs from the artifact")
		}
		return nil
	}())
	o.check("digest stable across builds of one seed", r.digestCheck(scale, b.art.SHA256))
	if !r.w.serve {
		b.snap = snap
	}
	return b, nil
}

func ledgerCheck(snap *snapshot.Snapshot) error {
	ds := snap.Dataset
	f := ds.Funnel
	if f == nil {
		return errors.New("artifact carries no funnel ledger")
	}
	if err := f.Check(); err != nil {
		return err
	}
	st := f.Stages()
	if len(st) == 0 {
		return errors.New("funnel has no stages")
	}
	if in := st[0].InCount(); in != int64(ds.CrawledPeers) {
		return fmt.Errorf("funnel starts at %d peers, dataset says %d crawled", in, ds.CrawledPeers)
	}
	if out := st[len(st)-1].OutCount(); out != int64(ds.TotalPeers) {
		return fmt.Errorf("funnel ends at %d peers, dataset says %d usable", out, ds.TotalPeers)
	}
	return nil
}

// digestCheck compares a build's digest with the first build of the
// same (scale, seed) by this code, recording it when there is none.
func (r *runner) digestCheck(scale, sha string) error {
	p := filepath.Join(r.cache, fmt.Sprintf("digest-%s-%d", scale, r.seed))
	prev, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return writeAtomic(p, []byte(sha))
	}
	if err != nil {
		return err
	}
	if string(prev) != sha {
		return fmt.Errorf("digest %s, an earlier build of seed %d gave %s", sha[:12], r.seed, string(prev)[:12])
	}
	return nil
}

// setupPhase starts eyeballserve setupStarts times on the workload's
// artifact, timing each start to its first 200 on /healthz in the CPU
// time the host left (see unstolen), and keeps the last one running.
func (r *runner) setupPhase(ctx context.Context, o *outcome, tr *tracer, parent int64) (*server, error) {
	snap := filepath.Join(r.work, o.art.Path)
	if r.w.serve {
		snap = filepath.Join(r.cache, o.art.Path)
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupStarts; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		start := time.Now()
		host := startSteal(start)
		srv, err = startServer(r.serveBin, snap, filepath.Join(r.work, "serve-metrics.json"))
		samples := host.finish()
		o.attempted++
		if err != nil {
			return nil, err
		}
		tr.add("child.eyeballserve.setup", parent, start, start.Add(srv.setup))
		setups = append(setups, unstolen(srv.setup.Seconds(), samples, 0, srv.setup))
		if i < setupStarts-1 {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("eyeballserve exit: %w", err)
			}
		}
	}
	o.e2e["setup_s"] = median(setups)
	return srv, nil
}

// rungDurations splits the serve phase over the rungs.
func (r *runner) rungDurations() []time.Duration {
	total := r.seconds
	d := make([]time.Duration, len(rungs))
	for i, s := range r.w.plan.shares {
		d[i] = time.Duration(float64(total) * s)
	}
	return d
}

// counterDelta is the change in server counters over one rung.
type counterDelta struct {
	requests, hit, miss, coalesced, shed, timeouts float64
	lat                                            []bucket
	cpu                                            float64
}

func deltaOf(before, after promSet, cpuBefore, cpuAfter float64) counterDelta {
	d := func(name string, match map[string]string) float64 {
		return after.sum(name, match) - before.sum(name, match)
	}
	notReload := func(l map[string]string) bool { return l["endpoint"] != "reload" && l["endpoint"] != "healthz" }
	return counterDelta{
		requests:  d("eyeball_serve_footprint_requests_total", nil),
		hit:       d("eyeball_serve_footprint_cache_total", map[string]string{"result": "hit"}),
		miss:      d("eyeball_serve_footprint_cache_total", map[string]string{"result": "miss"}),
		coalesced: d("eyeball_serve_footprint_cache_total", map[string]string{"result": "coalesced"}),
		shed:      d("eyeball_serve_shed_total", nil),
		timeouts:  d("eyeball_serve_timeouts_total", nil),
		lat:       subBuckets(after.hist("eyeball_serve_latency_seconds", notReload), before.hist("eyeball_serve_latency_seconds", notReload)),
		cpu:       cpuAfter - cpuBefore,
	}
}

// servePhase steps the open-loop generator through the rungs, running
// a rung the host disturbed again while the retry budget lasts, and
// checks the server's cache funnel over the whole phase.
func (r *runner) servePhase(ctx context.Context, srv *server, ks *keyspace, expect map[fpKey][]byte, o *outcome, tr *tracer, parent int64) error {
	// The generator's heap is small and churns per request. It is
	// collected before each rung and otherwise only when it reaches
	// genHeapLimit, which keeps its own GC cycles, whose mark workers
	// take both CPUs from the server, out of the latencies it times.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(genHeapLimit))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plan := r.w.plan
	tgt := newTarget(srv.base, r.conns, ks, expect)
	phase, _ := tr.open("serve."+plan.mix, parent)
	defer tr.close(phase)
	first, _, err := srv.scrape()
	if err != nil {
		return fmt.Errorf("scraping eyeballserve: %w", err)
	}
	answered, err := r.warmUp(ctx, tgt, ks, o)
	if err != nil {
		return err
	}
	durs := r.rungDurations()
	budget := time.Duration(float64(r.seconds) * retryShare)
	var last promSet
	for ri, name := range rungs {
		if err := ctx.Err(); err != nil {
			return err
		}
		rate := plan.rates[min(ri, len(plan.rates)-1)]
		if name == "swap" {
			rate = plan.rates[0]
		}
		m := newMixer(plan.mix, ks, newRNG(r.w.name, r.seed, "keys."+name))
		s := makeSchedule(rate, durs[ri], newRNG(r.w.name, r.seed, "arrivals."+name), m)
		// A rung the host disturbed runs again, on the same schedule,
		// while the run's retry budget lasts; the least disturbed attempt
		// counts. Every attempt's requests count as ops.
		var best *attempt
		tries := 0
		for {
			a, err := r.attemptRung(ctx, srv, tgt, name, durs[ri], s, o, tr, phase)
			if err != nil {
				return err
			}
			tries++
			last = a.after
			answered += a.res.footprintsAnswered()
			if best == nil || a.hostSteal() < best.hostSteal() {
				best = a
			}
			if a.hostSteal() <= quietSteal || budget < durs[ri] || ctx.Err() != nil {
				break
			}
			budget -= durs[ri]
			r.logf("%s rung: the host stole %.1f%% of the CPU; running it again", name, 100*a.hostSteal())
		}
		r.rungMetrics(o, best.res, best.delta, best.sent, best.issued, best.steal)
		o.layer["serve.gc_cycles."+name] = float64(best.gc)
		o.layer["loadgen.attempts."+name] = float64(tries)
		// The server's peak memory in steady serving is read before the
		// swap rung; the peak reloads add is a per-layer number.
		hwm, err := procHWM(srv.pid())
		if err != nil {
			return err
		}
		if name == "swap" {
			o.layer["serve.swap_hwm_mib"] = float64(hwm) / 1024
		} else {
			o.e2e["peak_rss_mib"] = float64(hwm) / 1024
		}
	}
	o.check("hit + miss + coalesced == footprint requests", funnelCheck(first, last, answered))
	return nil
}

// retryShare is how much serving time, as a share of --seconds, a run
// may spend running disturbed rungs again.
const retryShare = 0.3

// attempt is one run of a rung.
type attempt struct {
	res    rungResult
	delta  counterDelta
	after  promSet // /metrics once the attempt ended
	sent   int
	issued []time.Duration // reload issue times (swap rung)
	steal  []cpuSample
	gc     int // server GC cycles during the attempt
}

// hostSteal is the share of the machine's CPU the host stole over the
// attempt.
func (a *attempt) hostSteal() float64 { return stealBetween(a.steal, 0, a.res.dur) }

// attemptRung runs one rung of open-loop load on schedule s, issuing the
// swap rung's reloads, and scrapes /metrics and /proc around it. Its
// requests and reloads count as ops in o.
func (r *runner) attemptRung(ctx context.Context, srv *server, tgt *target, name string, dur time.Duration, s schedule, o *outcome, tr *tracer, phase int64) (*attempt, error) {
	// Every attempt starts from freshly collected heaps in the server and
	// the generator, so whether a collection falls inside it depends on
	// what the rung allocates, not on what earlier rungs left.
	gc0, err := srv.gcCycles(true)
	if err != nil {
		return nil, fmt.Errorf("collecting eyeballserve's heap: %w", err)
	}
	runtime.GC()
	before, cpuBefore, err := srv.scrape()
	if err != nil {
		return nil, fmt.Errorf("scraping eyeballserve: %w", err)
	}
	rungSpan, t0 := tr.open("loadgen.rung."+name, phase)
	host := startSteal(t0)
	var rl *reloader
	if name == "swap" {
		rl = startReloads(ctx, srv, t0, dur, r.w.plan.reloads, tr, rungSpan)
	}
	a := &attempt{res: runRung(ctx, tgt, name, dur, s, r.conns, t0, tr, rungSpan)}
	if rl != nil {
		a.issued = rl.wait(o)
	}
	a.steal = host.finish()
	tr.close(rungSpan)
	gc1, err := srv.gcCycles(false)
	if err != nil {
		return nil, fmt.Errorf("reading eyeballserve's GC count: %w", err)
	}
	a.gc = gc1 - gc0
	after, cpuAfter, err := srv.scrape()
	if err != nil {
		return nil, fmt.Errorf("scraping eyeballserve: %w", err)
	}
	a.after = after
	a.delta = deltaOf(before, after, cpuBefore, cpuAfter)
	sent, failed := a.res.counts()
	a.sent = sent
	o.attempted += sent
	o.failed += failed
	if e := a.res.firstErr(); e != nil {
		r.logf("%s rung: %d of %d requests failed, first: %v", name, failed, sent, e)
		o.checksFail = append(o.checksFail, fmt.Sprintf("%s rung: %d failed requests, first: %v", name, failed, e))
	}
	return a, nil
}

// genHeapLimit caps the generator's heap during the serve phase, when
// its percentage-driven collector is off.
const genHeapLimit = 384 << 20

// warmUp fetches every footprint the hot mix requests once before any
// rung is timed, so the nominal rung measures the steady state the
// cache exists for rather than the first renders after start-up; the
// swap rung measures refilling it. The cold mix, whose keys overflow the
// cache, needs none. Returns the footprints the server answered with a
// body, counted as footprintsAnswered counts them for the rungs.
func (r *runner) warmUp(ctx context.Context, tgt *target, ks *keyspace, o *outcome) (int, error) {
	if r.w.plan.mix != mixHot {
		return 0, nil
	}
	answered := 0
	for _, k := range footprintKeys(mixHot, ks) {
		err := tgt.do(ctx, op{kind: opFootprint, asn: k.asn})
		o.check("warm-up footprint", err)
		if err != nil && ctx.Err() != nil {
			return 0, err
		}
		if err == nil || errors.Is(err, errMismatch) {
			answered++
		}
	}
	return answered, nil
}

// reloader issues a rung's reloads on the control connection.
type reloader struct {
	done   chan struct{}
	issued []time.Duration // offsets from the rung start
	secs   []float64
	fails  int
	first  error
}

// startReloads issues n reloads spread evenly over a rung of length dur
// that starts at t0, the first at the rung's start.
func startReloads(ctx context.Context, srv *server, t0 time.Time, dur time.Duration, n int, tr *tracer, parent int64) *reloader {
	rl := &reloader{done: make(chan struct{})}
	go func() {
		defer close(rl.done)
		for k := 0; k < n && ctx.Err() == nil; k++ {
			time.Sleep(time.Until(t0.Add(dur * time.Duration(k) / time.Duration(n))))
			start := time.Now()
			rl.issued = append(rl.issued, start.Sub(t0))
			err := srv.reload(ctx)
			tr.add("control.reload", parent, start, time.Now())
			rl.secs = append(rl.secs, time.Since(start).Seconds())
			if err != nil {
				rl.fails++
				if rl.first == nil {
					rl.first = err
				}
			}
		}
	}()
	return rl
}

// wait waits for the reloads to finish, counts them as ops in o, and
// returns their issue times.
func (rl *reloader) wait(o *outcome) []time.Duration {
	<-rl.done
	o.attempted += len(rl.issued)
	o.failed += rl.fails
	if rl.first != nil {
		o.checksFail = append(o.checksFail, fmt.Sprintf("%d reloads failed, first: %v", rl.fails, rl.first))
	}
	o.layer["serve.reload_s"] = median(rl.secs)
	return rl.issued
}

// funnelCheck verifies the server's footprint cache funnel over the
// serve phase: every footprint request counted exactly one cache result,
// and the server counted exactly the requests the generator got answers
// to.
func funnelCheck(first, last promSet, answered int) error {
	d := func(name string, match map[string]string) float64 {
		return last.sum(name, match) - first.sum(name, match)
	}
	req := d("eyeball_serve_footprint_requests_total", nil)
	res := d("eyeball_serve_footprint_cache_total", nil)
	if req != res {
		return fmt.Errorf("server counted %.0f footprint requests but %.0f cache results", req, res)
	}
	if int(req) != answered {
		return fmt.Errorf("server counted %.0f footprint requests, generator got %d answers", req, answered)
	}
	return nil
}

// rungMetrics turns one rung into end-to-end numbers, its client tail
// latencies and its live per-layer counters. Its latencies cover only
// the rung's quiet windows (see quietWindows), and its completion rate
// is scaled to the CPU the host left (see unstolen), both judged from
// the host steal samples taken while it ran.
func (r *runner) rungMetrics(o *outcome, res rungResult, d counterDelta, sent int, issued []time.Duration, steal []cpuSample) {
	name := res.name
	quiet := quietWindows(steal, res.dur, stealWindow)
	inQuiet := func(rec record) bool {
		i := int(rec.due / stealWindow)
		return i < len(quiet) && quiet[i]
	}
	samples := 0
	switch name {
	case "nominal":
		lat := res.latencies(inQuiet)
		o.pcts["p50_ms"] = percentile(lat, 0.50)
		o.pcts["p99_ms"] = percentile(lat, 0.99)
		o.e2e["p50_ms"] = o.pcts["p50_ms"].Value
		o.layer["p99_ms"] = o.pcts["p99_ms"].Value
		samples = len(lat)
	case "busy":
		o.pcts["busy_p99_ms"] = percentile(res.latencies(inQuiet), 0.99)
		o.layer["busy_p99_ms"] = o.pcts["busy_p99_ms"].Value
		samples = o.pcts["busy_p99_ms"].N
	case "overload":
		o.e2e["sat_rps"] = res.completedRate(steal)
		samples = sent
	case "swap":
		o.pcts["swap_p99_ms"] = swapPercentile(res, issued, inQuiet)
		o.layer["swap_p99_ms"] = o.pcts["swap_p99_ms"].Value
		samples = o.pcts["swap_p99_ms"].N
	}
	o.layer["host.steal_frac."+name] = stealBetween(steal, 0, res.dur)
	o.layer["loadgen.kept_frac."+name] = keptShare(quiet)
	o.layer["loadgen.samples."+name] = float64(samples)
	hitFrac := 0.0
	if d.requests > 0 {
		hitFrac = d.hit / d.requests
	}
	o.layer["serve.hit_frac."+name] = hitFrac
	o.layer["serve.coalesced."+name] = d.coalesced
	o.layer["serve.renders."+name] = d.miss
	o.layer["serve.shed."+name] = d.shed
	o.layer["serve.timeouts."+name] = d.timeouts
	o.layer["serve.server_p50_ms."+name] = histQuantile(d.lat, 0.50) * 1000
	o.layer["serve.server_p99_ms."+name] = histQuantile(d.lat, 0.99) * 1000
	cpk := 0.0
	if sent > 0 {
		cpk = d.cpu * 1e6 / float64(sent)
	}
	o.layer["serve.cpu_ms_per_kreq."+name] = cpk
	o.layer["loadgen.lag_p99_ms."+name] = percentile(res.lag(), 0.99).Value
	o.layer["loadgen.backlog_max."+name] = float64(res.backlogMax())
}

// swapPercentile is the p99 of the requests kept by keep that fall due
// inside a swap window — from one reload's issue to the next's — pooled
// over all the windows.
func swapPercentile(res rungResult, issued []time.Duration, keep func(record) bool) pct {
	if len(issued) == 0 {
		return pct{Value: math.NaN()}
	}
	ws := swapWindows(issued, res.dur/time.Duration(len(issued)))
	return percentile(res.latencies(func(rec record) bool { return keep(rec) && inWindows(ws, rec.due) }), 0.99)
}

// keyspaceOf derives a mix's request keys from a decoded artifact.
func keyspaceOf(snap *snapshot.Snapshot) (*keyspace, error) {
	ds := snap.Dataset
	if len(ds.Order) == 0 {
		return nil, errors.New("artifact has no ASes")
	}
	if snap.Origins == nil {
		return nil, errors.New("artifact carries no origin table")
	}
	ks := &keyspace{}
	for _, asn := range ds.Order {
		ks.ASNs = append(ks.ASNs, int(asn))
		ks.Extents = append(ks.Extents, extent(ds.AS(asn).Samples))
	}
	top := append([]int(nil), ks.ASNs...)
	sort.SliceStable(top, func(i, j int) bool {
		return ds.AS(astopo.ASN(top[i])).Users > ds.AS(astopo.ASN(top[j])).Users
	})
	ks.TopASNs = top[:min(hotTopASes, len(top))]

	var prefixes []ipnet.Prefix
	snap.Origins.Compiled().Walk(func(p ipnet.Prefix, asn astopo.ASN) bool {
		if ds.AS(asn) != nil {
			prefixes = append(prefixes, p)
		}
		return true
	})
	if len(prefixes) == 0 {
		return nil, errors.New("no origin prefix belongs to a dataset AS")
	}
	for i := 0; i < lookupPool; i++ {
		p := prefixes[i*len(prefixes)/lookupPool]
		addr := p.Nth(uint64(i) * 2654435761 % p.NumAddrs())
		asn, ok := snap.Origins.OriginOf(addr)
		if !ok || ds.AS(asn) == nil {
			continue
		}
		ks.IPs = append(ks.IPs, addr.String())
		ks.IPASN = append(ks.IPASN, int(asn))
	}
	if len(ks.IPs) == 0 {
		return nil, errors.New("empty lookup pool")
	}
	return ks, nil
}

// extent returns the width and height in km of samples projected the
// way core projects them for the KDE.
func extent(samples []core.Sample) [2]float64 {
	pts := make([]geo.Point, len(samples))
	for i, s := range samples {
		pts[i] = s.Loc
	}
	c, ok := geo.Centroid(pts)
	if !ok {
		return [2]float64{}
	}
	xys := geo.NewProjection(c).ProjectAll(pts)
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, p := range xys {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	return [2]float64{maxX - minX, maxY - minY}
}

// lookupPool is how many addresses the lookup requests draw from.
const lookupPool = 4096

// renderAll renders every key offline with serve.RenderFootprint, the
// function behind /v1/footprint, on workers goroutines.
func renderAll(ctx context.Context, snap *snapshot.Snapshot, keys []fpKey, workers int) (map[fpKey][]byte, error) {
	out := make(map[fpKey][]byte, len(keys))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan fpKey)
	gaz := gazetteer.Default()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				rec := snap.Dataset.AS(astopo.ASN(k.asn))
				if rec == nil {
					mu.Lock()
					firstErr = fmt.Errorf("AS%d not in artifact", k.asn)
					mu.Unlock()
					continue
				}
				body, err := serve.RenderFootprint(ctx, gaz, rec, k.bw, 1, nil)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("rendering %v: %w", k, err)
				}
				out[k] = body
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// fixture is the serve workloads' fixed input: the default-seed artifact,
// its keyspace, and the offline footprint bodies a mix can request.
type fixture struct {
	Art      artifact          `json:"artifact"`
	Keys     *keyspace         `json:"keyspace"`
	Expected map[string][]byte `json:"expected"`
	keyed    map[fpKey][]byte
}

func (f *fixture) expected() map[fpKey][]byte { return f.keyed }

// fixture returns the serve fixture for mix, building the artifact and
// rendering the expected bodies the first time this code needs them.
func (r *runner) fixture(ctx context.Context, mix string) (*fixture, error) {
	name := fmt.Sprintf("serve-%d.snap", artifactSeed)
	snapPath := filepath.Join(r.cache, name)
	fxPath := filepath.Join(r.cache, fmt.Sprintf("serve-%d.%s.json", artifactSeed, mix))
	if data, err := os.ReadFile(fxPath); err == nil {
		var fx fixture
		if err := json.Unmarshal(data, &fx); err != nil {
			return nil, fmt.Errorf("reading %s: %w", fxPath, err)
		}
		return fx.index()
	}
	if _, err := os.Stat(snapPath); err != nil {
		r.logf("building the serve artifact (seed %d, default scale) once for this code", artifactSeed)
		tmp := snapPath + ".tmp"
		if _, err := runPipe(ctx, r.pipeBin, "-seed", strconv.Itoa(artifactSeed), "-snapshot", tmp, "-quiet"); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, snapPath); err != nil {
			return nil, err
		}
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("serve artifact: %w", err)
	}
	sum := sha256.Sum256(data)
	size := int64(len(data))
	data = nil
	ks, err := keyspaceOf(snap)
	if err != nil {
		return nil, err
	}
	r.logf("rendering the %s mix's expected footprints offline once for this code", mix)
	bodies, err := renderAll(ctx, snap, footprintKeys(mix, ks), r.conns)
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		Art:      artifact{Path: name, Bytes: size, SHA256: hex.EncodeToString(sum[:])},
		Keys:     ks,
		Expected: map[string][]byte{},
	}
	for k, b := range bodies {
		fx.Expected[k.String()] = b
	}
	enc, err := json.Marshal(fx)
	if err != nil {
		return nil, err
	}
	if err := writeAtomic(fxPath, enc); err != nil {
		return nil, err
	}
	return fx.index()
}

// index rebuilds the typed body map from the JSON one.
func (f *fixture) index() (*fixture, error) {
	f.keyed = make(map[fpKey][]byte, len(f.Expected))
	for _, mix := range []string{mixHot, mixCold} {
		for _, k := range footprintKeys(mix, f.Keys) {
			if b, ok := f.Expected[k.String()]; ok {
				f.keyed[k] = b
			}
		}
	}
	if len(f.keyed) != len(f.Expected) {
		return nil, fmt.Errorf("fixture: %d of %d expected bodies match no key", len(f.Expected)-len(f.keyed), len(f.Expected))
	}
	return f, nil
}

// writeAtomic writes data to path via a temporary file and rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
