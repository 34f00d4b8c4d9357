package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eyeballas/internal/client"
)

// errMismatch marks a response that arrived but failed its output check.
var errMismatch = errors.New("response failed its output check")

// target is what the generator sends requests to and checks them
// against.
type target struct {
	cl     *client.Client
	ks     *keyspace
	expect map[fpKey][]byte // offline RenderFootprint bodies
}

// newTarget builds the generator's client: internal/client with one
// attempt and no hedging, over a transport holding at most conns
// connections.
func newTarget(base string, conns int, ks *keyspace, expect map[fpKey][]byte) *target {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return &target{
		cl:     client.New(base, client.Options{HTTPClient: hc, MaxAttempts: 1}),
		ks:     ks,
		expect: expect,
	}
}

// do sends one op and checks the response.
func (t *target) do(ctx context.Context, o op) error {
	switch o.kind {
	case opFootprint:
		body, err := t.cl.Footprint(ctx, o.asn, o.bw)
		if err != nil {
			return err
		}
		bw := o.bw
		if bw == 0 {
			bw = defaultBW
		}
		if want, ok := t.expect[fpKey{o.asn, bw}]; !ok || !bytes.Equal(body, want) {
			return fmt.Errorf("%w: footprint %v differs from the offline render", errMismatch, fpKey{o.asn, bw})
		}
	case opLookup:
		res, err := t.cl.Lookup(ctx, t.ks.IPs[o.ip])
		if err != nil {
			return err
		}
		if !res.Matched || res.ASN != t.ks.IPASN[o.ip] {
			return fmt.Errorf("%w: lookup %s gave AS%d, want AS%d", errMismatch, t.ks.IPs[o.ip], res.ASN, t.ks.IPASN[o.ip])
		}
	case opAS:
		info, err := t.cl.AS(ctx, o.asn)
		if err != nil {
			return err
		}
		if info.ASN != o.asn {
			return fmt.Errorf("%w: /v1/as/%d answered AS%d", errMismatch, o.asn, info.ASN)
		}
	}
	return nil
}

// record is what the generator observed for one scheduled request.
// Times are offsets from the rung's start; sent is -1 for a request the
// rung ended before sending.
type record struct {
	due, pickup, sent, end time.Duration
	err                    error
}

// rungResult is one rung of open-loop load.
type rungResult struct {
	name  string
	dur   time.Duration
	sched schedule
	recs  []record
}

// reqTimeout bounds one generated request; the server's own deadline is
// 5s, so hitting this means the request hung.
const reqTimeout = 30 * time.Second

// workersPerConn is how many generator workers share each connection.
// A worker whose timer wakes late then holds up only its own request,
// not the next ones due; the transport still caps connections.
const workersPerConn = 4

// runRung drives one open-loop rung starting at t0: workers take
// requests in due order, each sleeping until its request falls due when
// it is early, over at most conns connections. Nothing is sent once the
// rung's duration has passed; requests still waiting then stay unsent.
// Each request's span (traced runs) is a child of parent.
func runRung(ctx context.Context, t *target, name string, dur time.Duration, s schedule, conns int, t0 time.Time, tr *tracer, parent int64) rungResult {
	res := rungResult{name: name, dur: dur, sched: s, recs: make([]record, len(s.due))}
	for i := range res.recs {
		res.recs[i] = record{due: s.due[i], sent: -1}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns*workersPerConn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.due) {
					return
				}
				pickup := time.Since(t0)
				if pickup >= dur {
					return
				}
				rec := &res.recs[i]
				rec.pickup = pickup
				if wait := s.due[i] - pickup; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				rec.sent = sent.Sub(t0)
				rctx, cancel := context.WithTimeout(ctx, reqTimeout)
				rec.err = t.do(rctx, s.ops[i])
				cancel()
				end := time.Now()
				rec.end = end.Sub(t0)
				tr.add("loadgen."+s.ops[i].kind.String(), parent, sent, end)
			}
		}()
	}
	wg.Wait()
	return res
}

// latency is a request's time from falling due to completing, less the
// generator's own lateness (see lag): the wait for a busy connection
// counts, a timer that woke late does not.
func (rec record) latency() time.Duration {
	return rec.end - rec.due - rec.lag()
}

// lag is how long after max(due, pickup) the request went out. A worker
// that picks a request up only after it fell due was busy with earlier
// ones — the program's queue — so only an early pickup's oversleep is
// the generator's lateness.
func (rec record) lag() time.Duration {
	return rec.sent - max(rec.due, rec.pickup)
}

// latencies returns the latency in ms of the sent requests that keep
// returns true for.
func (r rungResult) latencies(keep func(rec record) bool) []float64 {
	var out []float64
	for _, rec := range r.recs {
		if rec.sent >= 0 && keep(rec) {
			out = append(out, float64(rec.latency())/float64(time.Millisecond))
		}
	}
	return out
}

// completedRate is the median over the rung's whole seconds of the
// requests completed in each, every second's count divided by the share
// of the CPU the host left in it (see unstolen); over the whole rung
// when it is shorter than two seconds.
func (r rungResult) completedRate(steal []cpuSample) float64 {
	secs := int(r.dur / time.Second)
	if secs < 2 {
		n := 0
		for _, rec := range r.recs {
			if rec.sent >= 0 && rec.err == nil && rec.end <= r.dur {
				n++
			}
		}
		return float64(n) / unstolen(r.dur.Seconds(), steal, 0, r.dur)
	}
	per := make([]float64, secs)
	for _, rec := range r.recs {
		if rec.sent >= 0 && rec.err == nil && rec.end < time.Duration(secs)*time.Second {
			per[rec.end/time.Second]++
		}
	}
	for i := range per {
		per[i] /= unstolen(1, steal, time.Duration(i)*time.Second, time.Duration(i+1)*time.Second)
	}
	return median(per)
}

// counts returns how many requests were sent and how many failed,
// output checks included.
func (r rungResult) counts() (sent, failed int) {
	for _, rec := range r.recs {
		if rec.sent < 0 {
			continue
		}
		sent++
		if rec.err != nil {
			failed++
		}
	}
	return sent, failed
}

// firstErr returns the first failure, for diagnostics.
func (r rungResult) firstErr() error {
	for _, rec := range r.recs {
		if rec.sent >= 0 && rec.err != nil {
			return rec.err
		}
	}
	return nil
}

// lag returns the generator's lateness per sent request in ms.
func (r rungResult) lag() []float64 {
	var out []float64
	for _, rec := range r.recs {
		if rec.sent >= 0 {
			out = append(out, float64(rec.lag())/float64(time.Millisecond))
		}
	}
	return out
}

// backlogMax is the largest number of requests that had fallen due but
// not been picked up, observed at each pickup.
func (r rungResult) backlogMax() int {
	best := 0
	for i, rec := range r.recs {
		if rec.sent < 0 {
			continue
		}
		dueBy := sort.Search(len(r.sched.due), func(j int) bool { return r.sched.due[j] > rec.pickup })
		best = max(best, dueBy-i)
	}
	return best
}

// footprintsAnswered counts footprint requests the server answered
// with a body (checked or not).
func (r rungResult) footprintsAnswered() int {
	n := 0
	for i, rec := range r.recs {
		if rec.sent >= 0 && r.sched.ops[i].kind == opFootprint && (rec.err == nil || errors.Is(rec.err, errMismatch)) {
			n++
		}
	}
	return n
}
