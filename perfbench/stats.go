package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// trusted only when at least this many samples lie beyond it.
const minBeyond = 10

// pct is a percentile reported with the sample count it came from.
type pct struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	OK     bool    `json:"ok"`
}

// percentile returns the nearest-rank q-quantile of vals (which it
// sorts), with the number of samples and how many rank beyond it. OK is
// false when fewer than minBeyond samples lie beyond the quantile, in
// which case the value is still the nearest-rank estimate but must be
// read as under-sampled.
func percentile(vals []float64, q float64) pct {
	n := len(vals)
	if n == 0 {
		return pct{Value: math.NaN()}
	}
	sort.Float64s(vals)
	k := int(math.Ceil(q * float64(n)))
	k = max(1, min(k, n))
	beyond := n - k
	return pct{Value: vals[k-1], N: n, Beyond: beyond, OK: beyond >= minBeyond}
}

// median returns the middle of vals (mean of the middle two when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// window is a half-open interval [from, to) of rung time.
type window struct{ from, to time.Duration }

// swapWindows returns the window of length w after each reload issue
// time.
func swapWindows(issued []time.Duration, w time.Duration) []window {
	ws := make([]window, len(issued))
	for i, t := range issued {
		ws[i] = window{t, t + w}
	}
	return ws
}

// inWindows reports whether t falls inside any window.
func inWindows(ws []window, t time.Duration) bool {
	for _, w := range ws {
		if t >= w.from && t < w.to {
			return true
		}
	}
	return false
}

// bucket is one cumulative histogram bucket: count observations <= le.
type bucket struct {
	le    float64
	count float64
}

// histQuantile estimates the q-quantile of a cumulative histogram by
// linear interpolation inside the bucket that holds it, as Prometheus'
// histogram_quantile does. The +Inf bucket answers with the largest
// finite bound. NaN when the histogram is empty.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return math.NaN()
	}
	total := bs[len(bs)-1].count
	rank := q * total
	prevLE, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevCount)/(b.count-prevCount)
		}
		prevLE, prevCount = b.le, b.count
	}
	return prevLE
}

// subBuckets returns the per-bucket difference a − b of two cumulative
// histograms with the same bounds (a scraped after b).
func subBuckets(a, b []bucket) []bucket {
	out := make([]bucket, len(a))
	for i := range a {
		out[i] = a[i]
		if i < len(b) {
			out[i].count -= b[i].count
		}
	}
	return out
}
