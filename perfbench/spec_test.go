package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the spec")

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchE2E      `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the --seconds every run of the benchmark uses.
const runSeconds = 25

func specFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchE2E{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchLayer{m.Name, m.Unit, m.Better})
	}
	return f
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := json.MarshalIndent(specFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is out of date with the spec; rerun with -update")
	}
}

func TestSpecIsWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var setupBound, maxOther float64
	check := func(m metric) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) has a malformed name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxOther)
	}
	for _, m := range perLayer {
		check(m)
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || w.why == "" || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
		sum := 0.0
		for _, s := range w.plan.shares {
			sum += s
		}
		if sum > 1+1e-9 {
			t.Errorf("workload %s: rung shares sum to %g", w.name, sum)
		}
		if w.plan.shares[0] > retryShare {
			t.Errorf("workload %s: nominal rung share %g exceeds the retry budget %g, so a disturbed one cannot run again", w.name, w.plan.shares[0], retryShare)
		}
		if w.plan.rates[2] < 2*w.plan.capacity {
			t.Errorf("workload %s: overload rate %g is not at least twice capacity %g", w.name, w.plan.rates[2], w.plan.capacity)
		}
	}
}

// TestEveryPerLayerMetricIsProduced checks that the code writes every
// per-layer name, since a traced run fails on a missing one: the live
// per-rung counters by running rungMetrics on a synthetic rung, the
// trace overheads by construction, and every other name as a map key
// literal (or, per rung, its prefix) in the package's sources, so that a
// misspelt key fails here rather than in a traced run.
func TestEveryPerLayerMetricIsProduced(t *testing.T) {
	produced := map[string]bool{}
	for _, e := range endToEnd {
		produced["trace_overhead."+e.Name] = true
	}
	r := &runner{w: workloads[0]}
	for _, name := range rungs {
		res := rung(2*time.Second,
			[4]float64{10, 0, 10, 11}, [4]float64{500, 400, 500, 502}, [4]float64{1500, 1400, 1500, 1501})
		res.name = name
		d := counterDelta{requests: 3, hit: 2, miss: 1, cpu: 0.01,
			lat: []bucket{{0.001, 2}, {0.01, 3}, {math.Inf(1), 3}}}
		steal := []cpuSample{{0, 0, 0}, {2 * time.Second, 1, 400}}
		o := newOutcome()
		r.rungMetrics(o, res, d, 3, []time.Duration{0}, steal)
		for k, v := range o.layer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("rungMetrics wrote %s = %g", k, v)
			}
			produced[k] = true
		}
	}
	var src strings.Builder
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	code := src.String()
	for _, m := range perLayer {
		if produced[m.Name] || strings.Contains(code, `["`+m.Name+`"]`) {
			continue
		}
		if i := strings.LastIndexByte(m.Name, '.'); i > 0 && strings.Contains(code, `["`+m.Name[:i+1]+`"+name]`) {
			continue // written per rung outside rungMetrics
		}
		t.Errorf("per-layer metric %s is written nowhere", m.Name)
	}
}
