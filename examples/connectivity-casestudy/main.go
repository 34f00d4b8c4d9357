// connectivity-casestudy reproduces the paper's §6 case study: what does
// an eyeball AS's geography predict about its connectivity — and how much
// richer is the reality?
//
// The subject is this world's analogue of AS 8234 (RAI): a city-level
// broadcaster in Rome with ~3000 P2P users. Geography suggests one or two
// national upstreams and peering at the local Rome exchange; the observed
// connectivity has five upstreams and remote peering in Milan.
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

	cs, err := eyeball.RunCaseStudy(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cs.Render())

	// Dig one level deeper with the world's ground truth: why remote
	// peering makes sense — two of the three Milan peers are simply not
	// present at the Rome exchange, so peering with them requires the
	// more expensive remote arrangement (the paper's closing
	// observation).
	refs := env.World.CaseStudy()
	fmt.Println("\nwhy peer remotely? membership of the subject's peers:")
	for _, peer := range []eyeball.ASN{refs.Academic, refs.PeerB, refs.PeerC} {
		name := env.World.AS(peer).Name
		local := env.IXPData.MemberOf(refs.LocalIXP, peer)
		remote := env.IXPData.MemberOf(refs.RemoteIXP, peer)
		fmt.Printf("  %-16s local(%s)=%v remote(%s)=%v\n",
			name, cs.LocalIXPName, local, cs.RemoteIXPName, remote)
	}
	fmt.Println("\npeering with the two remote-only networks is impossible at the local exchange;")
	fmt.Println("the subject forgoes the cheaper local option for reach — as the paper concludes.")
}
