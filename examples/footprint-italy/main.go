// footprint-italy reproduces the paper's running example (Figure 1 and
// the §4.2 city list): the multi-bandwidth KDE footprint of an Italy-wide
// eyeball AS, showing how the kernel bandwidth acts as a resolution knob
// — city-level peaks at 20 km merge into regional and national blobs at
// 40 and 60 km.
package main

import (
	"context"
	"fmt"
	"log"

	"eyeballas"
)

func main() {
	log.SetFlags(0)

	// The test-scale world (~60 eyeball ASes) and its measurement
	// environment.
	wcfg, pcfg, err := eyeball.ScaleConfigs(eyeball.ScaleSmall, 42)
	if err != nil {
		log.Fatal(err)
	}
	world, err := eyeball.GenerateWorldWithConfig(wcfg)
	if err != nil {
		log.Fatal(err)
	}
	env, err := eyeball.NewExperiments(context.Background(), world, 42, pcfg)
	if err != nil {
		log.Fatal(err)
	}

	// The planted Italy-wide national ISP is this world's AS 3269
	// analogue; RunFigure1 picks it automatically.
	fig, err := eyeball.RunFigure1(env, []float64{20, 40, 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig.Render())

	// The §4.2 numeric comparison: how the PoP list contracts with
	// bandwidth.
	fmt.Println("\nbandwidth sweep:")
	for _, bw := range []float64{10, 20, 40, 60, 80} {
		rec := env.Dataset.AS(fig.ASN)
		fp, err := eyeball.EstimateFootprint(env.World, rec.Samples,
			eyeball.FootprintOptions{BandwidthKm: bw})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  bw %3.0f km: %2d peaks → %2d PoP cities, %d partition(s)\n",
			bw, len(fp.Peaks), len(fp.PoPs), len(fp.Partitions))
	}

	// Ground truth for the same AS.
	a := env.World.AS(fig.ASN)
	fmt.Printf("\nground truth: %s has %d PoPs across Italy\n", a.Name, len(a.PoPs))
	for _, p := range a.PoPs {
		fmt.Printf("  %-10s share %.3f\n", p.City.Name, p.Share)
	}
}
