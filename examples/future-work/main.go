// future-work runs the four studies the paper defers to future work,
// implemented as extensions of this reproduction:
//
//   - multi-scale PoP refinement (§5): combine bandwidths to split nearby
//     PoPs without inheriting the fine bandwidth's unreliability;
//   - sampling-bias sensitivity (§4.3): mild bias distorts densities,
//     significant bias hides PoPs;
//   - edge + traceroute fusion (§7): the two views are complementary;
//   - geography→connectivity prediction (§1): how far does a footprint
//     go in predicting upstreams and exchange presence?
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

	ms, err := eyeball.RunMultiScale(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ms.Render())

	bi, err := eyeball.RunBias(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bi.Render())

	fu, err := eyeball.RunFusion(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fu.Render())

	pr, err := eyeball.RunPredict(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(pr.Render())

	// The per-AS view of the multi-scale refinement, on the Figure 1
	// subject.
	f1, err := eyeball.RunFigure1(env, []float64{40})
	if err != nil {
		log.Fatal(err)
	}
	rec := env.Dataset.AS(f1.ASN)
	refined, err := eyeball.MultiScaleFootprint(env.World, rec.Samples, eyeball.MultiScaleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-scale footprint of AS %d (%s):\n", f1.ASN, f1.Name)
	for _, p := range refined {
		fmt.Printf("  %-12s density %.3f  visible %2.0f-%2.0f km  persistence %d\n",
			p.City.Name, p.Density, p.FinestKm, p.CoarsestKm, p.Persistence)
	}
}
