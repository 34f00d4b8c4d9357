package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return out
}

func TestPercentileReportsItsSampleCount(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true}, // exactly ten beyond: trusted
		{999, 0.99, 990, 9, false},  // nine beyond: under-sampled
		{10, 0.5, 5, 5, false},
		{100, 0.5, 50, 50, true},
		{1, 0.99, 1, 0, false},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.q)
		if got.Value != c.value || got.N != c.n || got.Beyond != c.beyond || got.OK != c.ok {
			t.Errorf("percentile(1..%d, %g) = %+v, want value %g beyond %d ok %v", c.n, c.q, got, c.value, c.beyond, c.ok)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5).Value) {
		t.Error("percentile of no samples must be NaN")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSwapWindowClassification(t *testing.T) {
	ws := swapWindows([]time.Duration{time.Second, 5 * time.Second}, 2*time.Second)
	for _, c := range []struct {
		at   time.Duration
		want bool
	}{
		{999 * time.Millisecond, false},
		{time.Second, true}, // window opens when the reload is issued
		{2999 * time.Millisecond, true},
		{3 * time.Second, false}, // and is half-open
		{4 * time.Second, false},
		{6 * time.Second, true},
		{7 * time.Second, false},
	} {
		if got := inWindows(ws, c.at); got != c.want {
			t.Errorf("inWindows(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	bs := []bucket{{0.001, 50}, {0.01, 90}, {0.1, 100}, {math.Inf(1), 100}}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 0.001},
		{0.7, 0.001 + 0.009*0.5},
		{0.95, 0.01 + 0.09*0.5},
		{0.25, 0.0005},
	} {
		if got := histQuantile(bs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("histQuantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	inf := []bucket{{0.1, 1}, {math.Inf(1), 10}}
	if got := histQuantile(inf, 0.99); got != 0.1 {
		t.Errorf("a quantile in the +Inf bucket = %g, want the largest finite bound", got)
	}
	if !math.IsNaN(histQuantile([]bucket{{1, 0}}, 0.5)) {
		t.Error("empty histogram must give NaN")
	}
	d := subBuckets([]bucket{{1, 10}, {2, 30}}, []bucket{{1, 4}, {2, 5}})
	if d[0].count != 6 || d[1].count != 25 {
		t.Errorf("subBuckets = %v", d)
	}
}

// rung builds a rungResult from (due, pickup, sent, end) in ms; sent < 0
// marks an unsent request.
func rung(dur time.Duration, recs ...[4]float64) rungResult {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	r := rungResult{name: "nominal", dur: dur}
	for _, x := range recs {
		r.sched.due = append(r.sched.due, ms(x[0]))
		r.sched.ops = append(r.sched.ops, op{kind: opFootprint})
		rec := record{due: ms(x[0]), pickup: ms(x[1]), sent: -1}
		if x[2] >= 0 {
			rec.sent, rec.end = ms(x[2]), ms(x[3])
		}
		r.recs = append(r.recs, rec)
	}
	return r
}

func TestLatenessAccounting(t *testing.T) {
	r := rung(time.Second,
		[4]float64{10, 0, 11, 12},    // early pickup, timer woke 1ms late
		[4]float64{20, 25, 25, 40},   // picked up late: queue, not lag
		[4]float64{21, 40, 40.5, 50}, // queued behind the one before
		[4]float64{30, 50, 50, 60},
		[4]float64{990, 995, -1, 0}, // never sent
	)
	lag := r.lag()
	want := []float64{1, 0, 0.5, 0}
	if len(lag) != len(want) {
		t.Fatalf("lag over %d sent requests, want %d", len(lag), len(want))
	}
	for i := range want {
		if math.Abs(lag[i]-want[i]) > 1e-9 {
			t.Errorf("lag[%d] = %g, want %g", i, lag[i], want[i])
		}
	}
	// At pickup 40ms requests 0..3 had fallen due and only 0 and 1 had
	// been taken: 2 and 3 were waiting.
	if got := r.backlogMax(); got != 2 {
		t.Errorf("backlogMax = %d, want 2", got)
	}
	// Latency runs from due, less the generator's own oversleep.
	lat := r.latencies(func(record) bool { return true })
	if len(lat) != 4 || lat[0] != 1 || lat[1] != 20 || lat[2] != 28.5 {
		t.Errorf("latencies from due = %v, want [1 20 28.5 30]", lat)
	}
	if got := r.completedRate(nil); got != 4 {
		t.Errorf("completedRate = %g, want 4/s", got)
	}
	r.recs[1].err = errMismatch
	sent, failed := r.counts()
	if sent != 4 || failed != 1 || !errors.Is(r.firstErr(), errMismatch) {
		t.Errorf("counts = %d sent, %d failed", sent, failed)
	}
	if got := r.footprintsAnswered(); got != 4 {
		t.Errorf("footprintsAnswered = %d, want 4 (a mismatched body was still answered)", got)
	}
}

func TestCompletedRateIsAMedianOverSeconds(t *testing.T) {
	var recs [][4]float64
	for s := 0; s < 3; s++ {
		n := 100
		if s == 1 {
			n = 10 // a stalled second
		}
		for i := 0; i < n; i++ {
			at := float64(s*1000 + i*1000/n)
			recs = append(recs, [4]float64{at, at, at, at + 0.5})
		}
	}
	r := rung(3*time.Second, recs...)
	if got := r.completedRate(nil); got != 100 {
		t.Fatalf("completedRate = %g, want the median second's 100", got)
	}
	// The host stole half the CPU in the first and last seconds and a
	// quarter in the stalled one: their counts are divided by 0.5, 0.75
	// and 0.5.
	steal := stealSamples(10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
		5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
		10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	if got := r.completedRate(steal); math.Abs(got-200) > 1e-9 {
		t.Fatalf("completedRate under steal = %g, want the median second's 100/0.5", got)
	}
}
