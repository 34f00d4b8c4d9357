package main

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"
)

// rng is a splitmix64 stream. Every key sequence and arrival schedule the
// benchmark generates is drawn from one of these, so inputs are a pure
// function of (workload, seed, stream label) on every platform and Go
// version.
type rng struct{ state uint64 }

// newRNG derives an independent stream for one (workload, seed, label)
// triple.
func newRNG(workload string, seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(label))
	return &rng{state: seed ^ h.Sum64()}
}

func (r *rng) uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 { return float64(r.uint64()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.uint64() % uint64(n)) }

// shuffle permutes idx in place (Fisher–Yates).
func (r *rng) shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// zipf samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int {
	u := r.float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// prob returns the probability of rank k.
func (z *zipf) prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// opKind is the endpoint a generated request targets.
type opKind uint8

const (
	opFootprint opKind = iota
	opLookup
	opAS
)

var opNames = [...]string{"footprint", "lookup", "as"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request. bw 0 asks for the server's default
// bandwidth; ip indexes the lookup pool.
type op struct {
	kind opKind
	asn  int
	bw   float64
	ip   int
}

// fpKey identifies one footprint body: an AS at a bandwidth in km.
type fpKey struct {
	asn int
	bw  float64
}

func (k fpKey) String() string {
	return "AS" + strconv.Itoa(k.asn) + "@" + strconv.FormatFloat(k.bw, 'g', -1, 64)
}

// Request mixes.
const (
	mixHot  = "hot"
	mixCold = "cold"
)

// defaultBW is the server's default footprint bandwidth, which hot-mix
// footprint requests use by omitting ?bw=.
const defaultBW = 40

// coldBWs are the paper's bandwidths the cold mix spreads requests over.
var coldBWs = []float64{10, 40, 80}

// Hot-mix shape: shares of footprint and lookup requests (the rest are
// AS records), the Zipf exponent, and how many of the highest-user ASes
// the footprint requests cover — fewer than the server's 128-entry LRU.
const (
	hotFootprintShare = 0.6
	hotLookupShare    = 0.3
	hotZipfS          = 1.0
	hotTopASes        = 100
)

// keyspace is what a mix draws requests from, derived from one snapshot
// artifact: every dataset AS in ascending order with the extent of its
// samples, the highest-user ASes in descending user order, and a pool of
// addresses inside dataset prefixes with the origin AS each must resolve
// to.
type keyspace struct {
	ASNs []int `json:"asns"`
	// Extents[i] is the width and height in km of ASNs[i]'s projected
	// samples, which sets the size of its KDE grid.
	Extents [][2]float64 `json:"extents"`
	TopASNs []int        `json:"top_asns"`
	IPs     []string     `json:"ips"`
	IPASN   []int        `json:"ip_asn"`
}

// renderCost is a deterministic proxy for the cost of rendering a key:
// the KDE grid's cell count over 16. The grid spans the samples' extent
// plus a 4-bandwidth pad on each side in cells of a quarter bandwidth.
func (ks *keyspace) renderCost(asIdx int, bw float64) float64 {
	if asIdx >= len(ks.Extents) {
		return 0
	}
	e := ks.Extents[asIdx]
	return (e[0]/bw + 8) * (e[1]/bw + 8)
}

// mixer draws the op sequence of one mix. It is stateful (the cold mix
// walks cycles over its keys) and consumes only its own rng.
type mixer struct {
	mix  string
	ks   *keyspace
	r    *rng
	zipf *zipf
	// cold: keys ranked costliest first, the cycle's stride through the
	// ranks, and the current cycle's offset and position
	ranks  []int
	stride int
	offset int
	pos    int
}

func newMixer(mix string, ks *keyspace, r *rng) *mixer {
	m := &mixer{mix: mix, ks: ks, r: r}
	if mix == mixHot {
		m.zipf = newZipf(min(hotTopASes, len(ks.TopASNs)), hotZipfS)
		return m
	}
	n := len(ks.ASNs) * len(coldBWs)
	m.ranks = make([]int, n)
	for i := range m.ranks {
		m.ranks[i] = i
	}
	cost := func(k int) float64 { return ks.renderCost(k/len(coldBWs), coldBWs[k%len(coldBWs)]) }
	sort.SliceStable(m.ranks, func(a, b int) bool { return cost(m.ranks[a]) > cost(m.ranks[b]) })
	m.stride = coprimeNear(n, 0.3819660112501051) // 1 − 1/φ
	m.pos = n
	return m
}

// coprimeNear returns the first integer at or above frac·n that is
// coprime with n, so that striding by it visits every residue once.
func coprimeNear(n int, frac float64) int {
	s := max(1, int(math.Round(frac*float64(n))))
	for gcd(s, n) != 1 {
		s++
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (m *mixer) next() op {
	if m.mix == mixCold {
		// Each cycle visits every key once, striding through the cost
		// ranks by a golden-ratio step from a seeded offset: any run of
		// consecutive requests then samples cheap and costly renders in
		// the proportions of the whole key set, so a rung of a few hundred
		// requests does the same work whatever the seed.
		n := len(m.ranks)
		if m.pos == n {
			m.offset, m.pos = m.r.intn(n), 0
		}
		k := m.ranks[(m.offset+m.pos*m.stride)%n]
		m.pos++
		return op{kind: opFootprint, asn: m.ks.ASNs[k/len(coldBWs)], bw: coldBWs[k%len(coldBWs)]}
	}
	u := m.r.float64()
	switch {
	case u < hotFootprintShare:
		return op{kind: opFootprint, asn: m.ks.TopASNs[m.zipf.sample(m.r)]}
	case u < hotFootprintShare+hotLookupShare:
		return op{kind: opLookup, ip: m.r.intn(len(m.ks.IPs))}
	default:
		return op{kind: opAS, asn: m.ks.ASNs[m.r.intn(len(m.ks.ASNs))]}
	}
}

// footprintKeys lists every footprint key a mix can request.
func footprintKeys(mix string, ks *keyspace) []fpKey {
	var keys []fpKey
	if mix == mixCold {
		for _, asn := range ks.ASNs {
			for _, bw := range coldBWs {
				keys = append(keys, fpKey{asn, bw})
			}
		}
		return keys
	}
	for _, asn := range ks.TopASNs[:min(hotTopASes, len(ks.TopASNs))] {
		keys = append(keys, fpKey{asn, defaultBW})
	}
	return keys
}

// schedule is one rung's open-loop plan: request i falls due at due[i]
// (offset from the rung's start) and is ops[i].
type schedule struct {
	due []time.Duration
	ops []op
}

// makeSchedule lays out arrivals at rate per second for dur: request i
// falls due at a seeded uniform point of its own 1/rate slot, with its
// op drawn from m. The rate is exact and bursts stay bounded, so the
// queueing a rung sees comes from the program rather than from the
// draw. Arrival times and keys use separate streams, so the key
// sequence does not depend on the rate.
func makeSchedule(rate float64, dur time.Duration, arrivals *rng, m *mixer) schedule {
	var s schedule
	for i := 0; ; i++ {
		d := time.Duration((float64(i) + arrivals.float64()) / rate * float64(time.Second))
		if d >= dur {
			return s
		}
		s.due = append(s.due, d)
		s.ops = append(s.ops, m.next())
	}
}
