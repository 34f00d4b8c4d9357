package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestRNGIsAPureFunctionOfItsInputs(t *testing.T) {
	draw := func(w string, seed uint64, label string) []uint64 {
		r := newRNG(w, seed, label)
		out := make([]uint64, 8)
		for i := range out {
			out[i] = r.uint64()
		}
		return out
	}
	a := draw("build", 7, "keys.nominal")
	if !reflect.DeepEqual(a, draw("build", 7, "keys.nominal")) {
		t.Fatal("same (workload, seed, label) drew different sequences")
	}
	for _, other := range [][]uint64{
		draw("serve-cold", 7, "keys.nominal"),
		draw("build", 8, "keys.nominal"),
		draw("build", 7, "keys.busy"),
	} {
		if reflect.DeepEqual(a, other) {
			t.Fatal("distinct inputs drew the same sequence")
		}
	}
	// Pin the stream itself: a change to the generator silently changes
	// every workload's inputs, so it must show up here. The first value is
	// the reference splitmix64 output for state 0.
	if got := (&rng{}).uint64(); got != 0xe220a8397b1dcdaf {
		t.Fatalf("splitmix64 stream changed: first draw %#x", got)
	}
	if got := newRNG("build", 1, "keys.nominal").uint64(); got != 0x9654c5f0404e2b90 {
		t.Fatalf("stream derivation changed: first draw %#x", got)
	}
}

func TestZipfSamplerMatchesItsDistribution(t *testing.T) {
	z := newZipf(100, 1.0)
	sum := 0.0
	for k := 0; k < 100; k++ {
		p := z.prob(k)
		if k > 0 && p >= z.prob(k-1) {
			t.Fatalf("P(%d)=%g not below P(%d)=%g", k, p, k-1, z.prob(k-1))
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %g", sum)
	}
	// P(k) is proportional to 1/(k+1).
	if r := z.prob(0) / z.prob(9); math.Abs(r-10) > 1e-9 {
		t.Fatalf("P(0)/P(9) = %g, want 10", r)
	}
	const n = 200_000
	counts := make([]int, 100)
	r := newRNG("zipf", 1, "test")
	for i := 0; i < n; i++ {
		counts[z.sample(r)]++
	}
	for _, k := range []int{0, 1, 4, 20, 99} {
		want := z.prob(k) * n
		sd := math.Sqrt(want)
		if math.Abs(float64(counts[k])-want) > 5*sd {
			t.Errorf("rank %d drawn %d times, want %.0f ± %.0f", k, counts[k], want, 5*sd)
		}
	}
}

func testKeyspace() *keyspace {
	return &keyspace{
		ASNs:    []int{10, 20, 30, 40, 50},
		TopASNs: []int{30, 10, 50},
		IPs:     []string{"10.0.0.1", "10.0.0.2"},
		IPASN:   []int{10, 20},
	}
}

func TestScheduleIsDeterministicAndHoldsItsRate(t *testing.T) {
	ks := testKeyspace()
	mk := func(rate float64) schedule {
		return makeSchedule(rate, 10*time.Second, newRNG("w", 3, "arrivals"), newMixer(mixHot, ks, newRNG("w", 3, "keys")))
	}
	a, b := mk(1000), mk(1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a.due) < 9999 || len(a.due) > 10000 {
		t.Fatalf("schedule holds %d requests over 10s, want 1000/s", len(a.due))
	}
	for i, d := range a.due {
		if d < time.Duration(i)*time.Millisecond || d >= time.Duration(i+1)*time.Millisecond {
			t.Fatalf("due[%d] = %v outside its 1ms slot", i, d)
		}
	}
	// Keys come from their own stream, so the rate does not move them.
	c := mk(300)
	if !reflect.DeepEqual(c.ops, a.ops[:len(c.ops)]) {
		t.Fatal("changing the rate changed the key sequence")
	}
}

func TestColdMixWalksEveryKeyOncePerCycle(t *testing.T) {
	ks := testKeyspace()
	m := newMixer(mixCold, ks, newRNG("serve-cold", 1, "keys"))
	n := len(ks.ASNs) * len(coldBWs)
	for cycle := 0; cycle < 3; cycle++ {
		seen := map[fpKey]bool{}
		for i := 0; i < n; i++ {
			o := m.next()
			if o.kind != opFootprint {
				t.Fatalf("cold mix drew a %v", o.kind)
			}
			k := fpKey{o.asn, o.bw}
			if seen[k] {
				t.Fatalf("cycle %d repeats %v", cycle, k)
			}
			seen[k] = true
		}
	}
	if got := len(footprintKeys(mixCold, ks)); got != n {
		t.Fatalf("cold mix lists %d keys, want %d", got, n)
	}
}

func TestHotMixShares(t *testing.T) {
	ks := testKeyspace()
	m := newMixer(mixHot, ks, newRNG("build", 1, "keys"))
	counts := map[opKind]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		o := m.next()
		counts[o.kind]++
		if o.kind == opFootprint && o.bw != 0 {
			t.Fatal("hot footprints must use the server's default bandwidth")
		}
	}
	for kind, want := range map[opKind]float64{opFootprint: 0.6, opLookup: 0.3, opAS: 0.1} {
		if got := float64(counts[kind]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("%v share %.3f, want %.1f", kind, got, want)
		}
	}
	if got := footprintKeys(mixHot, ks); len(got) != len(ks.TopASNs) || got[0] != (fpKey{30, defaultBW}) {
		t.Fatalf("hot keys %v", got)
	}
}

func TestColdCyclesSpreadCostlyKeys(t *testing.T) {
	ks := &keyspace{}
	for i := 0; i < 400; i++ {
		ks.ASNs = append(ks.ASNs, 1000+i)
		ks.Extents = append(ks.Extents, [2]float64{float64(i * 40), float64(i * 20)})
	}
	m := newMixer(mixCold, ks, newRNG("serve-cold", 5, "keys"))
	n := len(m.ranks)
	rank := map[fpKey]int{}
	for r, k := range m.ranks {
		rank[fpKey{ks.ASNs[k/len(coldBWs)], coldBWs[k%len(coldBWs)]}] = r
		if r > 0 {
			prev := m.ranks[r-1]
			if ks.renderCost(k/len(coldBWs), coldBWs[k%len(coldBWs)]) > ks.renderCost(prev/len(coldBWs), coldBWs[prev%len(coldBWs)]) {
				t.Fatalf("rank %d costs more than rank %d", r, r-1)
			}
		}
	}
	// Every window of 200 consecutive requests, across cycle boundaries,
	// holds the costliest tenth of the keys in close to its share.
	var ranks []int
	for i := 0; i < 3*n; i++ {
		o := m.next()
		ranks = append(ranks, rank[fpKey{o.asn, o.bw}])
	}
	const w = 200
	for start := 0; start+w <= len(ranks); start += 37 {
		top := 0
		for _, r := range ranks[start : start+w] {
			if r < n/10 {
				top++
			}
		}
		if top < w/10-4 || top > w/10+4 {
			t.Fatalf("window at %d holds %d of the costliest tenth, want %d ± 4", start, top, w/10)
		}
	}
}
