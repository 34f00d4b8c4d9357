package client

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eyeballas/internal/kde"
)

// TestMaxBandwidthMirrorsServer pins the client's bandwidth ceiling to
// the server's: the client-side guard exists to reject requests the
// server would 400, so the two constants must never drift.
func TestMaxBandwidthMirrorsServer(t *testing.T) {
	if MaxBandwidthKm != kde.MaxBandwidthKm {
		t.Fatalf("client.MaxBandwidthKm = %d, kde.MaxBandwidthKm = %d; the envelopes must match", MaxBandwidthKm, kde.MaxBandwidthKm)
	}
}

// TestClientBWValidation is the client-side half of the bw regression
// table: out-of-envelope bandwidths — including the +Inf this client
// used to format straight into the query string — fail locally and
// never reach the wire.
func TestClientBWValidation(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}\n"))
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	ctx := context.Background()

	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.001, MaxBandwidthKm + 1, 1e300}
	for _, bw := range bad {
		if _, err := c.Footprint(ctx, 64500, bw); err == nil {
			t.Errorf("Footprint accepted bw=%g", bw)
		}
		if _, err := c.Footprints(ctx, []int{64500}, bw); err == nil {
			t.Errorf("Footprints accepted bw=%g", bw)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("invalid bandwidths reached the wire %d times", n)
	}

	for _, bw := range []float64{0, 40, MaxBandwidthKm} {
		if _, err := c.Footprint(ctx, 64500, bw); err != nil {
			t.Errorf("Footprint(bw=%g): %v", bw, err)
		}
		if _, err := c.Footprints(ctx, []int{64500}, bw); err != nil {
			t.Errorf("Footprints(bw=%g): %v", bw, err)
		}
	}
	if n := hits.Load(); n != 6 {
		t.Errorf("valid calls hit the server %d times, want 6", n)
	}
}

// TestFootprintsBatchingAndOrder: a 150-ASN request splits into
// ceil(150/64) = 3 wire requests, results come back one line per ASN
// in request order with trailing newlines intact, and per-AS error
// lines ride inline without failing the batch.
func TestFootprintsBatchingAndOrder(t *testing.T) {
	var (
		mu   sync.Mutex
		reqs []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs = append(reqs, r.URL.RawQuery)
		mu.Unlock()
		for _, p := range strings.Split(r.URL.Query().Get("asns"), ",") {
			if p == "99999" {
				fmt.Fprintf(w, "{\"error\":\"AS99999 not in dataset\"}\n")
				continue
			}
			fmt.Fprintf(w, "{\"asn\":%s}\n", p)
		}
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})

	asns := make([]int, 0, 150)
	for i := 0; i < 150; i++ {
		if i == 70 {
			asns = append(asns, 99999) // lands in the second batch
			continue
		}
		asns = append(asns, 64000+i)
	}
	lines, err := c.Footprints(context.Background(), asns, 80)
	if err != nil {
		t.Fatalf("Footprints: %v", err)
	}
	if len(lines) != len(asns) {
		t.Fatalf("got %d lines for %d ASNs", len(lines), len(asns))
	}
	for i, asn := range asns {
		want := fmt.Sprintf("{\"asn\":%d}\n", asn)
		if asn == 99999 {
			want = "{\"error\":\"AS99999 not in dataset\"}\n"
		}
		if string(lines[i]) != want {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reqs) != 3 {
		t.Fatalf("client issued %d requests for 150 ASNs, want 3 (batches of 64)", len(reqs))
	}
	for i, q := range reqs {
		if !strings.Contains(q, "bw=80") {
			t.Errorf("request %d lost the bandwidth: %q", i, q)
		}
	}
	if n := len(strings.Split(strings.TrimPrefix(strings.Split(reqs[0], "&")[0], "asns="), ",")); n != 64 {
		t.Errorf("first batch carried %d ASNs, want 64", n)
	}
}

// TestFootprintsLineCountMismatch: a server answering the wrong number
// of lines is a protocol violation, not data to misalign silently.
func TestFootprintsLineCountMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"asn\":1}\n{\"asn\":2}\n")) // two lines for one ASN
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	if _, err := c.Footprints(context.Background(), []int{64500}, 0); err == nil || !strings.Contains(err.Error(), "lines") {
		t.Fatalf("mismatched line count returned %v, want a lines-mismatch error", err)
	}
}

func TestFootprintsInputValidation(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	ctx := context.Background()

	if _, err := c.Footprints(ctx, nil, 0); err == nil {
		t.Error("empty ASN list accepted")
	}
	if _, err := c.Footprints(ctx, []int{64500, -3}, 0); err == nil {
		t.Error("negative ASN accepted")
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("invalid input reached the wire %d times", n)
	}
}
