// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds eyeballpipe, eyeballserve and this program from
// the checkout, then runs one workload against the shipped binaries.
//
//	bash perfbench/run.sh --workload build|serve-cold|all \
//	    --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) prints every end-to-end metric; a traced
// run (--trace 1) runs the workload untraced and traced, replays each
// layer's public functions in-process, and prints every per-layer
// metric. The last line of standard output is the run's JSON result.
// See README.md for the workloads, metrics and checks.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads; BENCHMARK.json carries the
// same names and whys.
var workloads = []workload{
	{
		name: "build",
		why:  "Default-scale eyeballpipe -snapshot (geolocate, crawl, fold, encode), then the hot mix served from it with 5 reloads. 1000/4200/28000 rps of 7000 capacity. Holdout seed 9001",
		plan: servePlan{mix: mixHot, rates: [3]float64{1000, 4200, 28000}, shares: [4]float64{0.25, 0.25, 0.2, 0.3}, reloads: 5, capacity: 7000},
	},
	{
		name:  "serve-cold",
		why:   "Footprints uniform over 665 ASes x {10,40,80} km: 1995 keys vs 128 cache entries, so the KDE render dominates and the cache is bypassed. 60/220/1500 rps of 360 capacity",
		serve: true,
		plan:  servePlan{mix: mixCold, rates: [3]float64{60, 220, 1500}, shares: [4]float64{0.3, 0.2, 0.25, 0.25}, reloads: 3, capacity: 360},
	},
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: build, serve-cold, or all")
	seed := fset.Uint64("seed", 1, "workload seed; every generated input is a pure function of (workload, seed)")
	seconds := fset.Int("seconds", 25, "length of each workload's serve phase")
	traceFlag := fset.Int("trace", 0, "1 runs the traced pass and the layer replays and prints per-layer metrics")
	root := fset.String("root", ".", "checkout root")
	out := fset.String("out", ".bench_build", "directory holding the built binaries; caches and results go under out/perfbench")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The generator holds at most nproc connections and GOMAXPROCS <= nproc.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	base := runner{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		conns:    runtime.GOMAXPROCS(0),
		pipeBin:  filepath.Join(*out, "bin", "eyeballpipe"),
		serveBin: filepath.Join(*out, "bin", "eyeballserve"),
		log:      stderr,
	}
	if err := base.prepareDirs(*out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A run that printed its result exits 0 even when a check failed:
	// the result's correct and failed fields carry that.
	for _, w := range ws {
		r := base
		r.w = w
		res, err := r.execute(ctx, *traceFlag == 1, *root)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := r.report(stdout, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown --workload %q (want build, serve-cold or all)", name)
}

// prepareDirs checks the binaries exist and sets up the cache and work
// directories. The cache is keyed by a digest of the three binaries, so
// artifacts built by other code are never reused; stale caches are
// removed.
func (r *runner) prepareDirs(out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	h := sha256.New()
	for _, bin := range []string{r.pipeBin, r.serveBin, self} {
		f, err := os.Open(bin)
		if err != nil {
			return fmt.Errorf("missing binary (run perfbench/run.sh from the checkout root): %w", err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	id := hex.EncodeToString(h.Sum(nil))[:16]
	cacheRoot := filepath.Join(out, "perfbench", "cache")
	if old, err := os.ReadDir(cacheRoot); err == nil {
		for _, e := range old {
			if e.Name() != id {
				os.RemoveAll(filepath.Join(cacheRoot, e.Name()))
			}
		}
	}
	r.cache = filepath.Join(cacheRoot, id)
	r.work = filepath.Join(out, "perfbench", "work")
	r.results = filepath.Join(out, "perfbench", "results")
	if err := os.RemoveAll(r.work); err != nil {
		return err
	}
	for _, d := range []string{r.cache, r.work, r.results} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runResult is a run's full record: the result plus what produced it.
type runResult struct {
	result
	Provenance map[string]any `json:"provenance"`
	Samples    map[string]pct `json:"percentile_samples"`
	// Live is the untraced pass's own per-layer numbers: the serve
	// phase's counters per rung, loadgen health and host steal.
	Live     map[string]float64 `json:"live"`
	Checks   []string           `json:"failed_checks"`
	SpanFile string             `json:"span_file,omitempty"`
}

// execute runs the workload untraced and, for a traced run, traced plus
// the layer replays. A traced run serves half of --seconds in each of its
// two passes, so that both and the replays fit in one run.
func (r *runner) execute(ctx context.Context, traced bool, root string) (*runResult, error) {
	if traced {
		r.seconds /= 2
	}
	r.logf("%s seed %d: untraced pass", r.w.name, r.seed)
	base, err := r.e2e(ctx, nil)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		result:     result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]value{}},
		Provenance: provenance(root, r, base.art),
		Samples:    base.pcts,
		Live:       base.layer,
		Checks:     base.checksFail,
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := base.e2e[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("end-to-end metric %s has no finite value", m.Name)
			}
			res.Metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		tr := newTracer()
		r.logf("%s seed %d: traced pass", r.w.name, r.seed)
		pass, err := r.e2e(ctx, tr)
		if err != nil {
			return nil, err
		}
		r.logf("%s seed %d: layer replays", r.w.name, r.seed)
		artPath := filepath.Join(r.work, pass.art.Path)
		if r.w.serve {
			artPath = filepath.Join(r.cache, pass.art.Path)
		}
		layer, err := r.layers(ctx, tr, artPath)
		if err != nil {
			return nil, err
		}
		for k, v := range pass.layer {
			layer[k] = v
		}
		for _, m := range endToEnd {
			layer["trace_overhead."+m.Name] = pass.e2e[m.Name] - base.e2e[m.Name]
		}
		res.Samples = pass.pcts // the per-layer tails are the traced pass's
		res.Attempted += pass.attempted
		res.Failed += pass.failed
		res.Checks = append(res.Checks, pass.checksFail...)
		layer["run.fail_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		for _, m := range perLayer {
			v, ok := layer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("per-layer metric %s has no finite value", m.Name)
			}
			res.Metrics[m.Name] = value{v, m.Unit}
		}
		spans := tr.snapshot()
		res.SpanFile = filepath.Join(r.results, fmt.Sprintf("%s-seed%d.spans.json", r.w.name, r.seed))
		if err := writeSpanFile(res.SpanFile, spanFile{
			Provenance: res.Provenance,
			SelfNS:     nsByName(selfByName(spans)),
			TotalNS:    nsByName(totalByName(spans)),
			Spans:      spans,
		}); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Checks) == 0 && res.Failed == 0
	return res, nil
}

// report prints the human-readable table, writes the result file, and
// prints the JSON result as the last line.
func (r *runner) report(w io.Writer, res *runResult) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d cpu=%q nproc=%v gomaxprocs=%v go=%v snapshot=%v sha256=%.16s…\n",
		r.w.name, r.seed, res.Provenance["cpu_model"], res.Provenance["nproc"], res.Provenance["gomaxprocs"],
		res.Provenance["go_version"], res.Provenance["snapshot_bytes"], res.Provenance["snapshot_sha256"])
	for _, n := range names {
		v := res.Metrics[n]
		line := fmt.Sprintf("%-34s %14.6g %s", n, v.Value, v.Unit)
		if p, ok := res.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d, %d beyond", p.N, p.Beyond)
			if !p.OK {
				line += ", under-sampled"
			}
			line += ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range res.Checks {
		fmt.Fprintln(w, "# FAILED CHECK:", c)
	}
	if res.SpanFile != "" {
		fmt.Fprintln(w, "# spans:", res.SpanFile)
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if res.SpanFile != "" {
		trace = 1
	}
	path := filepath.Join(r.results, fmt.Sprintf("%s-seed%d-trace%d.json", r.w.name, r.seed, trace))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(res.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// provenance stamps a result with what produced it.
func provenance(root string, r *runner, art artifact) map[string]any {
	return map[string]any{
		"cpu_model":       cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          gitCommit(root),
		"source_sha256":   sourceDigest(root),
		"workload":        r.w.name,
		"seed":            r.seed,
		"seconds":         r.seconds.Seconds(),
		"connections":     r.conns,
		"mix":             r.w.plan.mix,
		"rates_rps":       r.w.plan.rates,
		"capacity_rps":    r.w.plan.capacity,
		"snapshot":        art.Path,
		"snapshot_bytes":  art.Bytes,
		"snapshot_sha256": art.SHA256,
		"holdout_seed":    holdoutSeed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout that is not a repository reports "unknown" and
// is identified by source_sha256 instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout
// (hidden directories excluded), identifying the code under test even
// where there is no git metadata.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
