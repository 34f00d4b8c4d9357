package main

import (
	"reflect"
	"testing"
	"time"
)

func TestParseCPUTotals(t *testing.T) {
	stat := "cpu  479298 0 36270 363339 397 0 3563 31632 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\nintr 1\n"
	steal, total, err := parseCPUTotals([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if steal != 31632 || total != 479298+36270+363339+397+3563+31632 {
		t.Fatalf("steal %d total %d", steal, total)
	}
	if _, _, err := parseCPUTotals([]byte("cpu 1 2 3\n")); err == nil {
		t.Error("accepted a short cpu line")
	}
	if _, _, err := parseCPUTotals([]byte("intr 1\n")); err == nil {
		t.Error("accepted a stat file with no cpu line")
	}
}

// samples builds one cpu sample per 100ms with the given steal ticks
// out of 20 (two CPUs at 100 ticks a second) in each interval.
func stealSamples(stolen ...uint64) []cpuSample {
	out := []cpuSample{{at: time.Millisecond}} // the first sample lands just after the rung starts
	var steal, total uint64
	for i, s := range stolen {
		steal += s
		total += 20
		out = append(out, cpuSample{at: time.Duration(i+1) * 100 * time.Millisecond, steal: steal, total: total})
	}
	return out
}

func TestQuietWindowsSkipStolenTime(t *testing.T) {
	// 2s rung, 500ms windows: the host steals half the CPU during the
	// third window.
	st := make([]uint64, 20)
	for i := 10; i < 15; i++ {
		st[i] = 10
	}
	samples := stealSamples(st...)
	if f := stealBetween(samples, time.Second, 1500*time.Millisecond); f != 0.5 {
		t.Fatalf("stealBetween over the stolen window = %g, want 0.5", f)
	}
	if f := stealBetween(samples, 0, 2*time.Second); f != 0.125 {
		t.Fatalf("stealBetween over the rung = %g, want 0.125", f)
	}
	// The stolen window and the one after it (its queue spills over) go.
	want := []bool{true, true, false, false}
	if got := quietWindows(samples, 2*time.Second, 500*time.Millisecond); !reflect.DeepEqual(got, want) {
		t.Fatalf("quietWindows = %v, want %v", got, want)
	}
	// When every window is stolen from, the quietest half is kept.
	for i := range st {
		st[i] = uint64(2 + i%5)
	}
	if got := keptShare(quietWindows(stealSamples(st...), 2*time.Second, 500*time.Millisecond)); got != 0.5 {
		t.Fatalf("kept share under sustained steal = %g, want 0.5", got)
	}
}

func TestKeepQuiet(t *testing.T) {
	if got := keepQuiet([]float64{0.01, 0.2, 0, 0.015, 0.3}); !reflect.DeepEqual(got, []bool{true, false, true, true, false}) {
		t.Fatalf("quiet builds = %v", got)
	}
	// None quiet: the quietest three of five.
	if got := keepQuiet([]float64{0.2, 0.1, 0.3, 0.06, 0.5}); !reflect.DeepEqual(got, []bool{true, true, false, true, false}) {
		t.Fatalf("quietest half = %v", got)
	}
}
