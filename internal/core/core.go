// Package core implements the paper's primary contribution: estimating an
// eyeball AS's geographic footprint from the geo-locations of its end
// users via kernel density estimation (§3), extracting its likely PoP
// locations from the density peaks (§4), classifying its geographic scope
// (§2), and validating discovered PoPs against reference lists (§5).
//
// The package is deliberately measurement-only: it consumes samples — a
// location plus the city/state/country labels a geolocation database
// reported — and never touches ground truth. Evaluation code compares its
// outputs against the generator's truth elsewhere.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/grid"
	"eyeballas/internal/kde"
	"eyeballas/internal/obs"
)

// Sample is one usable peer observation: the reference database's answer
// for one IP.
type Sample struct {
	Loc      geo.Point
	City     string
	State    string
	Country  string
	Region   gazetteer.Region
	GeoErrKm float64 // cross-database geolocation error estimate
}

// Options configure footprint estimation. Zero fields take the paper's
// defaults.
type Options struct {
	// BandwidthKm is the KDE kernel bandwidth; default 40 (§3.1).
	BandwidthKm float64
	// Alpha is the peak-selection threshold: peaks with density
	// > Alpha·Dmax become PoP candidates; default 0.01 (§4.1).
	Alpha float64
	// CityRadiusKm is the "loose" peak→city mapping radius; default
	// equals the bandwidth (§4.2).
	CityRadiusKm float64
	// CellKm overrides the KDE grid resolution; default BandwidthKm/4.
	CellKm float64
	// Workers bounds the goroutines used by the KDE convolution (and, in
	// MultiScaleFootprint, the per-bandwidth fan-out); 0 means
	// GOMAXPROCS, 1 forces serial execution. Footprints are
	// byte-identical for every setting.
	Workers int
	// Obs receives footprint metrics (peak/PoP counters) and is passed
	// through to the KDE layer; nil disables instrumentation. Footprints
	// are bit-identical either way.
	Obs *obs.Registry
}

// withDefaults fills zero fields. A non-zero BandwidthKm is passed on
// as given, so one outside the KDE's envelope fails there with a
// *kde.BandwidthError instead of silently becoming the default.
func (o Options) withDefaults() Options {
	if o.BandwidthKm == 0 {
		o.BandwidthKm = kde.CityLevelBandwidthKm
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.01
	}
	if o.CityRadiusKm <= 0 {
		o.CityRadiusKm = o.BandwidthKm
	}
	return o
}

// PoP is one inferred Point of Presence: a density peak mapped to a city.
type PoP struct {
	City      gazetteer.City
	PeakLoc   geo.Point // geographic location of the density peak
	PeakValue float64   // raw density at the peak
	// Density is the paper's per-PoP weight: the share of the AS's user
	// mass within one bandwidth radius of the peak (the §4.2 footprint
	// lists, e.g. "Milan (.130)").
	Density float64
}

// Footprint is the estimated geo- and PoP-level footprint of one AS.
type Footprint struct {
	N          int // samples used
	Bandwidth  float64
	Projection *geo.Projection
	Grid       *grid.Grid
	Dmax       float64
	// Peaks are all α-selected density peaks (before city mapping),
	// highest first, in geographic coordinates.
	Peaks []PeakGeo
	// PoPs are the city-mapped peaks, deduplicated per city, sorted by
	// Density descending — the PoP-level footprint (§4).
	PoPs []PoP
	// NoCityPeaks counts α-selected peaks that mapped to no city and
	// were dropped (§4.2).
	NoCityPeaks int
	// Partitions are the connected regions of the footprint contour at
	// Alpha·Dmax, largest mass first (§3: the footprint "may consist of
	// one or multiple partitions").
	Partitions []grid.Component
}

// PeakGeo is a density peak in geographic coordinates.
type PeakGeo struct {
	Loc   geo.Point
	Value float64
}

// EstimateFootprint runs the §3–§4 procedure for one AS. It is
// EstimateFootprintCtx under context.Background() — the signature every
// experiment and example uses when cancellation is not in play.
func EstimateFootprint(gaz *gazetteer.Gazetteer, samples []Sample, opts Options) (*Footprint, error) {
	return EstimateFootprintCtx(context.Background(), gaz, samples, opts)
}

// EstimateFootprintCtx is EstimateFootprint with cooperative
// cancellation: ctx is observed at the KDE convolution's block
// boundaries, and a cancelled run returns ctx.Err() with no footprint.
func EstimateFootprintCtx(ctx context.Context, gaz *gazetteer.Gazetteer, samples []Sample, opts Options) (*Footprint, error) {
	o := opts.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no samples")
	}
	pts := make([]geo.Point, len(samples))
	for i, s := range samples {
		pts[i] = s.Loc
	}
	centroid, _ := geo.Centroid(pts)
	proj := geo.NewProjection(centroid)
	xys := proj.ProjectAll(pts)

	g, err := kde.Estimate(ctx, xys, kde.Options{
		BandwidthKm: o.BandwidthKm,
		CellKm:      o.CellKm,
		Workers:     o.Workers,
		Obs:         o.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dmax, _, _ := g.Max()
	fp := &Footprint{
		N:          len(samples),
		Bandwidth:  o.BandwidthKm,
		Projection: proj,
		Grid:       g,
		Dmax:       dmax,
	}
	if dmax == 0 {
		return fp, nil
	}

	floor := o.Alpha * dmax
	rawPeaks := g.Peaks(floor)
	for _, p := range rawPeaks {
		fp.Peaks = append(fp.Peaks, PeakGeo{Loc: proj.ToGeo(p.XY), Value: p.Value})
	}
	fp.Partitions = g.Components(floor)

	// Peak → city mapping (§4.2), deduplicated per city keeping the
	// densest peak.
	byCity := map[string]*PoP{}
	var order []string
	for _, pk := range fp.Peaks {
		city, ok := gaz.MostPopulousWithin(pk.Loc, o.CityRadiusKm)
		if !ok {
			fp.NoCityPeaks++
			continue
		}
		key := city.Name + "/" + city.Country
		mass := massNear(g, proj, pk.Loc, o.BandwidthKm)
		if pop, exists := byCity[key]; exists {
			if pk.Value > pop.PeakValue {
				pop.PeakLoc = pk.Loc
				pop.PeakValue = pk.Value
				pop.Density = mass
			}
			continue
		}
		byCity[key] = &PoP{City: city, PeakLoc: pk.Loc, PeakValue: pk.Value, Density: mass}
		order = append(order, key)
	}
	for _, key := range order {
		fp.PoPs = append(fp.PoPs, *byCity[key])
	}
	if o.Obs != nil {
		o.Obs.Counter("eyeball_core_peaks_total").Add(int64(len(fp.Peaks)))
		o.Obs.Counter("eyeball_core_pops_total").Add(int64(len(fp.PoPs)))
		o.Obs.Counter("eyeball_core_unmapped_peaks_total").Add(int64(fp.NoCityPeaks))
	}
	sort.SliceStable(fp.PoPs, func(i, j int) bool {
		if fp.PoPs[i].Density != fp.PoPs[j].Density {
			return fp.PoPs[i].Density > fp.PoPs[j].Density
		}
		return fp.PoPs[i].City.Name < fp.PoPs[j].City.Name
	})
	return fp, nil
}

// massNear integrates the density surface over the disc of the given
// radius around a geographic point — the per-PoP user-mass share (the
// surface integrates to ~1).
func massNear(g *grid.Grid, proj *geo.Projection, at geo.Point, radiusKm float64) float64 {
	c := proj.ToXY(at)
	i0, j0, _ := g.CellOf(c)
	r := int(math.Ceil(radiusKm/g.Cell)) + 1
	sum := 0.0
	for j := j0 - r; j <= j0+r; j++ {
		if j < 0 || j >= g.H {
			continue
		}
		for i := i0 - r; i <= i0+r; i++ {
			if i < 0 || i >= g.W {
				continue
			}
			if g.Center(i, j).DistanceKm(c) <= radiusKm {
				sum += g.At(i, j)
			}
		}
	}
	return sum * g.Cell * g.Cell
}

// AreaKm2 returns the total area of the geo-footprint: the sum of the
// partition areas at the α·Dmax contour (§3's "geographic coverage").
func (fp *Footprint) AreaKm2() float64 {
	total := 0.0
	for _, p := range fp.Partitions {
		total += p.AreaKm
	}
	return total
}

// ReachKm returns the footprint's geographic reach: the maximum distance
// between any two of its PoPs (§1's "geographic reach is sufficiently
// large" peering criterion).
func (fp *Footprint) ReachKm() float64 { return ReachKm(fp.PoPs) }

// CityList renders the PoP-level footprint in the paper's §4.2 format:
// "[Milan (.130), Rome (.122), …]".
func (fp *Footprint) CityList() string {
	s := "["
	for i, p := range fp.PoPs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s (%.3f)", p.City.Name, p.Density)
	}
	return s + "]"
}
