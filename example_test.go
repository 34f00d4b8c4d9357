package eyeball_test

import (
	"context"
	"fmt"
	"log"

	"eyeballas"
)

// The examples below run against the deterministic test-scale world, so
// their output is stable across runs.

// ExampleGenerateSmallWorld shows ground-truth generation.
func ExampleGenerateSmallWorld() {
	w, err := eyeball.GenerateSmallWorld(42)
	if err != nil {
		log.Fatal(err)
	}
	s := w.Stats()
	fmt.Println("tier-1 backbones:", s.Tier1s)
	fmt.Println("case study planted:", w.CaseStudy() != nil)
	// Output:
	// tier-1 backbones: 6
	// case study planted: true
}

// ExampleEstimateFootprint runs the paper's §3–§4 analysis for the
// planted §6 subject: a Rome-only eyeball whose footprint is a single
// PoP.
func ExampleEstimateFootprint() {
	w, err := eyeball.GenerateSmallWorld(42)
	if err != nil {
		log.Fatal(err)
	}
	ds, _, err := eyeball.BuildTargetDataset(context.Background(), w,
		eyeball.DefaultCrawlConfig(), eyeball.DefaultPipelineConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	rec := ds.AS(w.CaseStudy().Subject)
	fp, err := eyeball.EstimateFootprint(w, rec.Samples, eyeball.FootprintOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PoP cities:", len(fp.PoPs))
	fmt.Println("top PoP:", fp.PoPs[0].City.Name)
	fmt.Println("classified:", eyeball.ClassifyLevel(rec.Samples).Level)
	// Output:
	// PoP cities: 1
	// top PoP: Rome
	// classified: city
}

// ExampleMatchPoPs validates a discovered PoP set against reference
// locations at the paper's §5 radius.
func ExampleMatchPoPs() {
	gaz := eyeball.Gazetteer()
	milan, _ := gaz.Find("Milan", "IT")
	rome, _ := gaz.Find("Rome", "IT")
	discovered := []eyeball.PoP{
		{City: milan, PeakLoc: milan.Loc},
		{City: rome, PeakLoc: rome.Loc},
	}
	reference := []eyeball.GeoPoint{milan.Loc} // only Milan is published
	m := eyeball.MatchPoPs(discovered, reference, eyeball.MatchRadiusKm)
	fmt.Printf("recall %.0f%%, precision %.0f%%, superset %v\n",
		100*m.RefMatchedFrac(), 100*m.DiscMatchedFrac(), m.Superset())
	// Output:
	// recall 100%, precision 50%, superset true
}
