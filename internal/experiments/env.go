// Package experiments regenerates every table and figure of the paper's
// evaluation over the synthetic world: Table 1 (target-dataset profile),
// Figure 1 (multi-bandwidth density surfaces), Figures 2(a)/2(b)
// (validation against published PoP lists), the §5 scalar statistics and
// DIMES comparison, and the §6 connectivity case study.
package experiments

import (
	"context"
	"fmt"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/ixp"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/refdata"
	"eyeballas/internal/rng"
	"eyeballas/internal/trace"
	"eyeballas/internal/traceroute"
)

// Scale selects a world-size preset (see ScaleConfigs).
type Scale int

// Available scales.
const (
	// ScaleSmall is for tests: ~60 eyeball ASes.
	ScaleSmall Scale = iota
	// ScaleDefault is the full experiment scale: ~650 eyeball ASes,
	// the paper's 1233 shrunk to keep a laptop run in seconds.
	ScaleDefault
	// ScalePaper is the paper's population: 1233 eyeball ASes and the
	// literal 1000-peer floor. A full run takes a few minutes and
	// several GB.
	ScalePaper
)

// ScaleConfigs returns the world-generation and conditioning
// configurations of a scale preset. The small preset lowers the per-AS
// peer floor to 60 to match its smaller crawl.
func ScaleConfigs(scale Scale, seed uint64) (astopo.Config, pipeline.Config, error) {
	switch scale {
	case ScaleSmall:
		cfg := pipeline.DefaultConfig()
		cfg.MinPeers = 60
		return astopo.SmallConfig(seed), cfg, nil
	case ScaleDefault:
		return astopo.DefaultConfig(seed), pipeline.DefaultConfig(), nil
	case ScalePaper:
		return astopo.PaperConfig(seed), pipeline.PaperConfig(), nil
	}
	return astopo.Config{}, pipeline.Config{}, fmt.Errorf("experiments: unknown scale %d", scale)
}

// Env bundles the world and every measurement dataset the experiments
// consume, generated once from a single seed.
type Env struct {
	Seed      uint64
	World     *astopo.World
	Routing   *bgp.Routing
	Dataset   *pipeline.Dataset
	Reference *refdata.Reference
	IXPData   *ixp.Dataset
	Traces    []traceroute.Trace
	// PipeCfg is the pipeline configuration the Dataset was built with,
	// kept so experiments that rebuild the pipeline (stability,
	// degradation) reuse the same thresholds.
	PipeCfg pipeline.Config
	// Ctx, when non-nil, cancels every experiment runner's worker pools
	// and pipeline rebuilds (the CLIs set it to their signal context).
	// Nil means context.Background().
	Ctx context.Context
}

// ctx returns the environment's cancellation context.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// NewEnv builds the measurement environment over a world — generated
// from a ScaleConfigs preset or loaded from a snapshot: the crawl and
// conditioned dataset, reference PoP lists, IXP data and traceroutes,
// all derived from seed. pipeCfg carries the conditioning thresholds,
// the observability registry (Obs), the fault plan (Faults) and the
// ingestion knobs. ctx is stored on the environment, so every worker
// pool, crawl and pipeline rebuild the experiments launch observes it
// (nil means context.Background()). Under a traced ctx the build hangs
// an "experiments.env" span with one child per step.
func NewEnv(ctx context.Context, w *astopo.World, seed uint64, pipeCfg pipeline.Config) (*Env, error) {
	env := &Env{Seed: seed, World: w, PipeCfg: pipeCfg, Ctx: ctx}
	span := trace.FromContext(env.ctx()).Child("experiments.env")
	defer span.End()
	routingSpan := span.Child("routing")
	env.Routing = bgp.ComputeRouting(w)
	routingSpan.End()
	var err error
	env.Dataset, _, err = pipeline.Run(trace.NewContext(env.ctx(), span), w, p2p.DefaultConfig(), pipeCfg, seed)
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	refSpan := span.Child("refdata")
	env.Reference = refdata.Build(w, refdata.DefaultConfig(), root.Split("refdata"))
	refSpan.End()
	// The paper consults the IXP mapping dataset as best-effort ground
	// truth (§6); use full detection here. Partial detection is modelled
	// and exercised in the ixp package itself.
	ixpSpan := span.Child("ixpdata")
	env.IXPData = ixp.Build(w, 1.0, root.Split("ixpdata"))
	ixpSpan.End()
	trSpan := span.Child("traceroute")
	env.Traces, err = traceroute.Simulate(w, env.Routing, traceroute.DefaultConfig(), root.Split("traceroute"))
	trSpan.End()
	if err != nil {
		return nil, err
	}
	return env, nil
}
