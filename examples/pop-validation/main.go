// pop-validation reproduces the paper's §5 validation (Figure 2): the
// PoPs discovered from user density are matched against the PoP lists
// some ISPs publish online, at three kernel bandwidths. Lower bandwidth
// recovers more of the ground truth but with far lower reliability —
// "using larger kernel bandwidth leads to a smaller but more reliable set
// of PoP locations".
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

	f2, err := eyeball.RunFigure2(env, []float64{10, 40, 80})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(f2.Render())
	fmt.Println()
	fmt.Print(eyeball.RunSection5(f2).Render())

	// Per-AS detail for the first few validation ASes at the paper's
	// default bandwidth, using the public matching primitives directly.
	fmt.Println("\nper-AS detail at 40 km:")
	shown := 0
	for _, asn := range f2.ASNs {
		rec := env.Dataset.AS(asn)
		fp, err := eyeball.EstimateFootprint(env.World, rec.Samples, eyeball.FootprintOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ref := env.Reference.Locations(asn)
		m := eyeball.MatchPoPs(fp.PoPs, ref, eyeball.MatchRadiusKm)
		fmt.Printf("  AS %-5d (%s): discovered %2d, published %2d, recall %3.0f%%, precision %3.0f%%\n",
			asn, env.World.AS(asn).Name, m.NDiscovered, m.NReference,
			100*m.RefMatchedFrac(), 100*m.DiscMatchedFrac())
		shown++
		if shown == 8 {
			break
		}
	}

	// The traceroute baseline comparison (§5, DIMES).
	d, err := eyeball.RunDIMES(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(d.Render())
}
