package main

import (
	"math"
	"strings"
	"testing"
)

const exposition = `# TYPE eyeball_serve_requests_total counter
eyeball_serve_requests_total{code="200",endpoint="footprint"} 120
eyeball_serve_requests_total{code="200",endpoint="lookup"} 30
eyeball_serve_footprint_requests_total 120
eyeball_serve_footprint_cache_total{result="hit"} 100
eyeball_serve_footprint_cache_total{result="miss"} 15
eyeball_serve_footprint_cache_total{result="coalesced"} 5
eyeball_serve_label_escapes{path="a \"q\" b",other="x"} 1.5e+00
eyeball_serve_latency_seconds_bucket{endpoint="footprint",le="0.001"} 100 # {trace_id="49a9"} 8.2e-05
eyeball_serve_latency_seconds_bucket{endpoint="footprint",le="+Inf"} 120
eyeball_serve_latency_seconds_bucket{endpoint="reload",le="0.001"} 0
eyeball_serve_latency_seconds_bucket{endpoint="reload",le="+Inf"} 2
eyeball_serve_latency_seconds_sum{endpoint="footprint"} 0.5
`

func TestParseProm(t *testing.T) {
	ps, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.sum("eyeball_serve_requests_total", nil); got != 150 {
		t.Errorf("requests = %g, want 150", got)
	}
	if got := ps.sum("eyeball_serve_requests_total", map[string]string{"endpoint": "lookup"}); got != 30 {
		t.Errorf("lookup requests = %g, want 30", got)
	}
	if got := ps.sum("eyeball_serve_footprint_cache_total", nil); got != ps.sum("eyeball_serve_footprint_requests_total", nil) {
		t.Errorf("cache results %g != requests", got)
	}
	if got := ps.sum("eyeball_serve_label_escapes", map[string]string{"path": `a "q" b`, "other": "x"}); got != 1.5 {
		t.Errorf("escaped label sample = %g, want 1.5", got)
	}
	all := ps.hist("eyeball_serve_latency_seconds", func(map[string]string) bool { return true })
	if len(all) != 2 || all[0].count != 100 || all[1].count != 122 || !math.IsInf(all[1].le, 1) {
		t.Errorf("summed buckets = %v", all)
	}
	noReload := ps.hist("eyeball_serve_latency_seconds", func(l map[string]string) bool { return l["endpoint"] != "reload" })
	if noReload[1].count != 120 {
		t.Errorf("buckets without reload = %v", noReload)
	}
	if ps.sum("no_such_metric", nil) != 0 {
		t.Error("a missing metric sums to 0")
	}
	for _, bad := range []string{"metric_without_value", `m{a="b"`, `m{a=b} 1`, "m notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a closing paren must not shift the
	// fields; utime and stime are the 14th and 15th fields.
	line := "4242 (eyeball serve) x) S 1 4242 4242 0 -1 4194560 7000 0 0 0 1234 56 0 0 20 0 9 0 100 1000 200 18446744073709551615\n"
	cpu, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+56) / clockTicks; cpu != want {
		t.Errorf("cpu = %g s, want %g", cpu, want)
	}
	if _, err := parseProcStat([]byte("4242 (truncated")); err == nil {
		t.Error("accepted a stat line with no command terminator")
	}
	if _, err := parseProcStat([]byte("1 (x) S 1 2")); err == nil {
		t.Error("accepted a short stat line")
	}
}

func TestParseProcStatus(t *testing.T) {
	status := "Name:\teyeballserve\nVmPeak:\t 2000000 kB\nVmHWM:\t  318212 kB\nVmRSS:\t  300000 kB\n"
	hwm, err := parseProcStatus([]byte(status), "VmHWM")
	if err != nil || hwm != 318212 {
		t.Fatalf("VmHWM = %d, %v; want 318212", hwm, err)
	}
	if _, err := parseProcStatus([]byte(status), "VmSwap"); err == nil {
		t.Error("found a key that is not there")
	}
}

func TestParseNumGC(t *testing.T) {
	profile := "heap profile: 1: 64 [2: 128] @ heap/1048576\n1: 64 [1: 64] @ 0x1\n\n" +
		"# runtime.MemStats\n# Alloc = 123\n# NumGC = 17\n# NumForcedGC = 3\n"
	if n, err := parseNumGC(strings.NewReader(profile)); err != nil || n != 17 {
		t.Fatalf("parseNumGC = %d, %v; want 17", n, err)
	}
	if _, err := parseNumGC(strings.NewReader("heap profile: 0: 0 [0: 0] @ heap/1\n")); err == nil {
		t.Fatal("parseNumGC accepted a profile without a NumGC line")
	}
}
