package pipeline

import (
	"context"
	"fmt"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/faults"
	"eyeballas/internal/geodb"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/parallel"
)

// tally counts one materialized locate pass.
func tally(results []located) passCounts {
	var c passCounts
	for i := range results {
		switch results[i].drop {
		case dropNoCity:
			c.noCity++
		case dropGarbage:
			c.garbage++
		case dropHighGeoErr:
			c.highGeoErr++
		case dropUnmappedIP:
			c.unmapped++
		}
		if results[i].missA {
			c.missA++
		}
		if results[i].missB {
			c.missB++
		}
	}
	return c
}

// buildBatch is the pre-streaming build, kept verbatim as the frozen
// reference for the differential test harness: it materializes the
// full []located verdict slice (O(crawled peers) memory) and aggregates
// afterwards. The package builds only through BuildStream; this file
// exists so the harness can prove that path bit-identical to the
// original batch semantics.
func buildBatch(ctx context.Context, crawl *p2p.Crawl, dbA, dbB *geodb.DB, origins bgp.Resolver, cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Fault wiring: wrap the databases and the resolver with the plan's
	// injectors, and arm the worker-panic injection. All of these are
	// identity operations under a nil (or all-zero) plan.
	dbA = dbA.WithFaults(cfg.Faults, faults.GeoMissA)
	if dbB != nil {
		dbB = dbB.WithFaults(cfg.Faults, faults.GeoMissB)
	}
	origins = bgp.WithFaults(origins, cfg.Faults)
	wp := cfg.Faults.Injector(faults.WorkerPanic)

	// The funnel is built unconditionally: Dataset.Drops and the CLI
	// summary are views over it. Registering it on a nil registry is a
	// no-op.
	funnel := obs.NewFunnel("pipeline")
	cfg.Obs.RegisterFunnel(funnel)
	stGeo := funnel.Stage("geolocate").DeclareReasons("no_city", "garbage_coord", "high_geo_err")
	stOrigin := funnel.Stage("origin").DeclareReasons("unmapped_ip")
	stDedup := funnel.Stage("dedup").DeclareReasons("dup_ip")
	stCond := funnel.Stage("condition").DeclareReasons("small_as", "high_err_as")

	ds := &Dataset{
		ASes:         make(map[astopo.ASN]*ASRecord),
		CrawledPeers: len(crawl.Peers),
		Funnel:       funnel,
	}

	// Optional checked path: detected once, outside the hot loop.
	checked, _ := origins.(bgp.CheckedResolver)
	// Shard-aggregated lookup counter: each work block accumulates a
	// plain local count and flushes one atomic add, so the ~6 ns
	// compiled OriginOf stays instruction-identical (see
	// bgp.NewOriginTableObs). Nil when metrics are disabled — Add on a
	// nil counter is a branch-only no-op.
	lookupsC := cfg.Obs.Counter("eyeball_bgp_origin_lookups_total")

	secondary := dbB
	if cfg.SingleDB {
		secondary = nil
		ds.Degraded = true
		ds.DegradedReason = "single-db mode requested (no cross-database error estimates)"
	}
	results, err := runLocate(ctx, crawl, dbA, secondary, origins, checked, cfg, wp, lookupsC)
	if err != nil {
		return nil, err
	}
	counts := tally(results)
	n := len(crawl.Peers)

	// Geolocate-stage error budget. The failure fraction is the share
	// of crawled peers lost to missing or corrupt records — high_geo_err
	// drops are not counted, because large cross-database disagreement
	// is dirty data the method is designed for, not an ingestion
	// failure. When exactly one database is individually over budget
	// and the fallback is enabled, rerun with the survivor.
	if cfg.MaxGeoMissFrac > 0 && secondary != nil && n > 0 {
		missFrac := float64(counts.noCity+counts.garbage) / float64(n)
		if missFrac > cfg.MaxGeoMissFrac {
			fracA := float64(counts.missA) / float64(n)
			fracB := float64(counts.missB) / float64(n)
			blameA := fracA > cfg.MaxGeoMissFrac
			blameB := fracB > cfg.MaxGeoMissFrac
			if !cfg.SingleDBFallback || blameA == blameB {
				return nil, &BudgetError{
					Stage: "geolocate",
					Reason: fmt.Sprintf("%.4f of %d crawled peers lost to missing/corrupt geolocation records (%s miss frac %.4f, %s miss frac %.4f)",
						missFrac, n, dbA.Name, fracA, dbB.Name, fracB),
					Frac:   missFrac,
					Budget: cfg.MaxGeoMissFrac,
				}
			}
			survivor, survivorMiss := dbA, fracA
			lostDB, lostFrac := dbB, fracB
			if blameA {
				survivor, survivorMiss = dbB, fracB
				lostDB, lostFrac = dbA, fracA
			}
			_ = survivorMiss
			results, err = runLocate(ctx, crawl, survivor, nil, origins, checked, cfg, wp, lookupsC)
			if err != nil {
				return nil, err
			}
			counts = tally(results)
			ds.Degraded = true
			ds.DegradedReason = fmt.Sprintf(
				"single-db fallback: %s miss fraction %.4f exceeded budget %.4f; rebuilt from %s only (no cross-database error estimates)",
				lostDB.Name, lostFrac, cfg.MaxGeoMissFrac, survivor.Name)
			if cfg.Obs != nil {
				cfg.Obs.Counter("eyeball_pipeline_degraded_builds_total", "reason", "single_db_fallback").Inc()
			}
		}
	}

	// Origin-stage error budget: unmapped peers as a fraction of the
	// peers that survived geolocation.
	geoOut := n - counts.noCity - counts.garbage - counts.highGeoErr
	if cfg.MaxOriginMissFrac > 0 && geoOut > 0 {
		missFrac := float64(counts.unmapped) / float64(geoOut)
		if missFrac > cfg.MaxOriginMissFrac {
			return nil, &BudgetError{
				Stage: "origin",
				Reason: fmt.Sprintf("%.4f of %d geolocated peers matched no BGP prefix",
					missFrac, geoOut),
				Frac:   missFrac,
				Budget: cfg.MaxOriginMissFrac,
			}
		}
	}

	seenIP := make(map[ipnet.Addr]astopo.ASN, len(crawl.Peers))
	var dup int
	for i, peer := range crawl.Peers {
		r := results[i]
		if r.drop != dropNone {
			continue
		}
		rec := ds.ASes[r.asn]
		if rec == nil {
			rec = &ASRecord{ASN: r.asn, PeersByApp: make(map[p2p.App]int)}
			ds.ASes[r.asn] = rec
		}
		if _, isDup := seenIP[peer.IP]; isDup {
			// Unique-IP semantics (§2: "89.1 million unique IP
			// addresses"): the sample is stored once but still counts in
			// this app's column.
			rec.PeersByApp[peer.App]++
			dup++
			continue
		}
		seenIP[peer.IP] = r.asn
		rec.PeersByApp[peer.App]++
		rec.Samples = append(rec.Samples, r.sample)
	}

	// Flush the peer-level funnel stages once per reason (the loops
	// above used plain locals — no per-peer atomics) and derive the
	// fixed-shape Drops view from the same counts.
	stGeo.In(n)
	stGeo.Drop("no_city", counts.noCity)
	stGeo.Drop("garbage_coord", counts.garbage)
	stGeo.Drop("high_geo_err", counts.highGeoErr)
	stGeo.Out(geoOut)
	stOrigin.In(geoOut)
	stOrigin.Drop("unmapped_ip", counts.unmapped)
	originOut := geoOut - counts.unmapped
	stOrigin.Out(originOut)
	stDedup.In(originOut)
	stDedup.Drop("dup_ip", dup)
	stDedup.Out(originOut - dup)
	ds.Drops.NoCityRecord = counts.noCity
	ds.Drops.GarbageCoord = counts.garbage
	ds.Drops.HighGeoErr = counts.highGeoErr
	ds.Drops.UnmappedIP = counts.unmapped
	ds.Drops.DupIP = dup

	out, err := condition(ctx, ds, cfg, stCond, nil)
	return out, err
}

// runLocate fans the pure per-peer stage out over the worker pool.
// secondary == nil selects the single-database path (no cross-database
// error estimate). wp, when non-nil, is the armed worker-panic
// injection: it panics at hit peers, which the pool converts into a
// *parallel.PanicError with the captured stack.
func runLocate(ctx context.Context, crawl *p2p.Crawl, primary, secondary *geodb.DB, origins bgp.Resolver, checked bgp.CheckedResolver, cfg Config, wp *faults.Injector, lookupsC *obs.Counter) ([]located, error) {
	results := make([]located, len(crawl.Peers))
	err := parallel.Blocks(ctx, cfg.Workers, len(crawl.Peers), 0, func(lo, hi int) error {
		var lookups int64
		for i := lo; i < hi; i++ {
			if wp.Hit(uint64(crawl.Peers[i].IP)) {
				panic(fmt.Sprintf("faults: injected worker panic at peer %s", crawl.Peers[i].IP))
			}
			r, err := locateOne(crawl.Peers[i], primary, secondary, origins, checked, cfg)
			if err != nil {
				return err
			}
			if r.drop == dropNone || r.drop == dropUnmappedIP {
				lookups++ // an origin lookup was actually performed
			}
			results[i] = r
		}
		lookupsC.Add(lookups)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
