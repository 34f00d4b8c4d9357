package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Host interference. On a shared virtual machine the host can take CPU
// from this guest for seconds at a time ("steal" in /proc/stat), which
// slows every process in it regardless of the code under test. The
// harness samples the machine's steal while it times something: a rung's
// latencies count over its quiet windows only, and times and rates of
// CPU-bound work are scaled to the CPU the host left (see unstolen).

// quietSteal is the largest share of the machine's CPU time the host may
// have stolen for a window to count as quiet.
const quietSteal = 0.02

// stealWindow is the length of the windows a rung is judged in.
const stealWindow = 500 * time.Millisecond

// cpuSample is the machine's cumulative CPU ticks at one moment, as an
// offset from the rung's start.
type cpuSample struct {
	at           time.Duration
	steal, total uint64
}

// parseCPUTotals returns the steal and total ticks of the aggregate
// "cpu" line of /proc/stat.
func parseCPUTotals(data []byte) (steal, total uint64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, 0, fmt.Errorf("proc stat: short cpu line %q", sc.Text())
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("proc stat cpu field %d: %w", i, err)
			}
			total += v
			if i == 8 {
				steal = v
			}
		}
		return steal, total, nil
	}
	return 0, 0, fmt.Errorf("proc stat: no cpu line")
}

// stealSampler records /proc/stat every 100ms until stopped.
type stealSampler struct {
	t0      time.Time
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
}

func startSteal(t0 time.Time) *stealSampler {
	s := &stealSampler{t0: t0, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return
	}
	steal, total, err := parseCPUTotals(data)
	if err != nil {
		return
	}
	s.samples = append(s.samples, cpuSample{at: time.Since(s.t0), steal: steal, total: total})
}

// finish stops sampling and returns the samples.
func (s *stealSampler) finish() []cpuSample {
	close(s.stop)
	<-s.done
	return s.samples
}

// stealBetween returns the share of CPU ticks stolen between the last
// sample at or before from and the first at or after to, clamped to the
// samples taken (0 when fewer than two span the interval).
func stealBetween(samples []cpuSample, from, to time.Duration) float64 {
	i := max(0, sort.Search(len(samples), func(i int) bool { return samples[i].at > from })-1)
	j := min(len(samples)-1, sort.Search(len(samples), func(j int) bool { return samples[j].at >= to }))
	if j <= i || samples[j].total <= samples[i].total {
		return 0
	}
	return float64(samples[j].steal-samples[i].steal) / float64(samples[j].total-samples[i].total)
}

// unstolen scales a wall-clock time measured between from and to to the
// share of the machine's CPU the host left to the guest over it. For
// work that keeps the CPUs busy this is the time it would have taken had
// the host stolen nothing; a rate is divided by the same share.
func unstolen(d float64, samples []cpuSample, from, to time.Duration) float64 {
	return d * (1 - stealBetween(samples, from, to))
}

// keepQuiet reports which of several measurements count, given the
// share of the CPU the host stole during each: those it stole at most
// quietSteal from, or the quietest half when fewer are quiet.
func keepQuiet(steals []float64) []bool {
	keep := make([]bool, len(steals))
	quiet := 0
	for i, f := range steals {
		if keep[i] = f <= quietSteal; keep[i] {
			quiet++
		}
	}
	if half := (len(steals) + 1) / 2; quiet < half {
		return quietestHalf(steals)
	}
	return keep
}

// quietestHalf keeps the half (rounded up) of the values that are
// lowest, ties broken by position.
func quietestHalf(fracs []float64) []bool {
	order := make([]int, len(fracs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] < fracs[order[b]] })
	keep := make([]bool, len(fracs))
	for _, i := range order[:(len(fracs)+1)/2] {
		keep[i] = true
	}
	return keep
}

// quietWindows splits a rung of length dur into windows of length w and
// reports which are quiet: the host stole at most quietSteal over the
// window and the one before it (a stall's queue spills into the next
// window). When fewer than half the windows are quiet, the quietest half
// is used instead, so every rung keeps enough samples.
func quietWindows(samples []cpuSample, dur, w time.Duration) []bool {
	n := int((dur + w - 1) / w)
	frac := make([]float64, n)
	for i := range frac {
		frac[i] = stealBetween(samples, max(0, time.Duration(i-1)*w), min(dur, time.Duration(i+1)*w))
	}
	return keepQuiet(frac)
}

// keptShare is the share of windows kept.
func keptShare(keep []bool) float64 {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return float64(n) / float64(max(len(keep), 1))
}
