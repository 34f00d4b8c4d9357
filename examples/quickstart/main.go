// Quickstart: generate a synthetic Internet, run the paper's measurement
// pipeline, and estimate the geo- and PoP-level footprint of one eyeball
// AS — the minimal end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"eyeballas"
)

func main() {
	log.SetFlags(0)

	// 1. A ground-truth synthetic Internet (test scale: ~60 eyeball
	//    ASes; use GenerateWorld for the full ~650-AS scale).
	world, err := eyeball.GenerateSmallWorld(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d ASes, %d IXPs\n", world.Stats().ASes, world.Stats().IXPs)

	// 2. The paper's §2 pipeline: crawl three P2P systems, geolocate
	//    every peer with two databases, group by AS via BGP tables, and
	//    condition (error and size filters).
	dataset, _, err := eyeball.BuildTargetDataset(context.Background(), world,
		eyeball.DefaultCrawlConfig(), eyeball.DefaultPipelineConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target dataset: %d eligible eyeball ASes, %d usable peers\n\n",
		len(dataset.Records()), dataset.TotalPeers)

	// 3. The paper's contribution (§3–§4): a KDE-based geo-footprint and
	//    the PoP-level footprint for the best-sampled AS.
	best := dataset.Records()[0]
	for _, rec := range dataset.Records() {
		if len(rec.Samples) > len(best.Samples) {
			best = rec
		}
	}
	fp, err := eyeball.EstimateFootprint(world, best.Samples, eyeball.FootprintOptions{})
	if err != nil {
		log.Fatal(err)
	}
	a := world.AS(best.ASN)
	fmt.Printf("AS %d (%s): %d peers, classified %s-level (%s)\n",
		best.ASN, a.Name, len(best.Samples), best.Class.Level, best.Class.Place)
	fmt.Printf("PoP-level footprint at %g km bandwidth:\n  %s\n",
		fp.Bandwidth, fp.CityList())
	fmt.Printf("footprint has %d partition(s); %d density peak(s), %d mapped to no city\n",
		len(fp.Partitions), len(fp.Peaks), fp.NoCityPeaks)

	// 4. Ground truth is available for every synthetic AS — compare.
	fmt.Println("\nground-truth PoP cities:")
	for _, p := range a.PoPs {
		marker := " "
		for _, d := range fp.PoPs {
			if d.City.Name == p.City.Name {
				marker = "*"
				break
			}
		}
		fmt.Printf("  %s %-18s share %.2f servesUsers=%v\n", marker, p.City.Name, p.Share, p.ServesUsers)
	}
	fmt.Println("(* = discovered by the KDE footprint)")
}
