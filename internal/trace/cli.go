package trace

import (
	"context"

	"eyeballas/internal/obs"
)

// StartCLI opens the root span of one CLI run when -trace is set on
// flags or want is true, and returns ctx carrying it. The tracer is
// seeded by seed, so the run's IDs repeat from run to run; the root
// records seed as an attribute. flags.Finish ends the root and, under
// -trace, prints its tree. Otherwise no tracer exists: ctx comes back
// unchanged with a nil root.
func StartCLI(ctx context.Context, flags *obs.CLIFlags, name string, seed uint64, want bool) (context.Context, *Span) {
	if !want && !flags.Tracing() {
		return ctx, nil
	}
	root := New(Options{Seed: seed}).Start(name)
	root.SetInt("seed", int64(seed))
	flags.SetTraceRoot(root)
	return NewContext(ctx, root), root
}
