package experiments

import (
	"testing"

	"eyeballas/internal/gazetteer"
	"eyeballas/internal/p2p"
)

// TestFullScaleShapes is the integration test for the paper's headline
// shapes at the default experiment scale (~650 eyeball ASes, ~1.5M
// crawled peers). It takes ~25 s; skipped under -short.
func TestFullScaleShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped in -short mode")
	}
	env, err := newScaleEnv(1, ScaleDefault)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(env.Dataset.Order); n < 400 {
		t.Fatalf("target dataset has only %d ASes", n)
	}

	// Table 1 asymmetries.
	tbl := RunTable1(env)
	if tbl.Peers[gazetteer.EU][p2p.Kad] <= tbl.Peers[gazetteer.EU][p2p.Gnutella] ||
		tbl.Peers[gazetteer.AS][p2p.Kad] <= tbl.Peers[gazetteer.AS][p2p.Gnutella] {
		t.Error("Kad should dominate EU and AS peers")
	}
	if tbl.Peers[gazetteer.NA][p2p.Gnutella] <= tbl.Peers[gazetteer.NA][p2p.Kad] {
		t.Error("Gnutella should dominate NA peers")
	}
	if tbl.Levels[gazetteer.EU][2] <= tbl.Levels[gazetteer.EU][0] { // country vs city
		t.Error("EU should be country-heavy")
	}
	if tbl.Levels[gazetteer.NA][1] <= tbl.Levels[gazetteer.NA][0] { // state vs city
		t.Error("NA should be state-heavy")
	}

	// Figure 2 / §5 shapes at full statistical power.
	f2, err := RunFigure2(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.ASNs) < 40 {
		t.Fatalf("only %d validation ASes (paper: 45)", len(f2.ASNs))
	}
	if !(f2.MeanDiscovered[10] > f2.MeanDiscovered[40] && f2.MeanDiscovered[40] > f2.MeanDiscovered[80]) {
		t.Errorf("mean discovered not decreasing: %v", f2.MeanDiscovered)
	}
	if !(f2.PerfectMatchFrac[80] > f2.PerfectMatchFrac[40] && f2.PerfectMatchFrac[40] > f2.PerfectMatchFrac[10]) {
		t.Errorf("perfect-match not increasing: %v", f2.PerfectMatchFrac)
	}
	// The 10 km panel must be clearly unreliable (paper: 5% perfect).
	if f2.PerfectMatchFrac[10] > 0.35 {
		t.Errorf("perfect-match at 10 km = %.2f; the fine-bandwidth set should be unreliable", f2.PerfectMatchFrac[10])
	}
	if f2.MeanReference <= f2.MeanDiscovered[40] {
		t.Errorf("published lists (%.1f) should exceed discovered at 40 km (%.1f)",
			f2.MeanReference, f2.MeanDiscovered[40])
	}

	// DIMES comparison (paper: 7.14 vs 1.54, 80% superset).
	d, err := RunDIMES(env)
	if err != nil {
		t.Fatal(err)
	}
	if d.CommonASes < 200 {
		t.Fatalf("only %d common ASes (paper: 226)", d.CommonASes)
	}
	if ratio := d.OurMeanPoPs / d.DIMESMeanPoPs; ratio < 2 {
		t.Errorf("KDE/traceroute PoP ratio %.2f < 2 (paper: ~4.6)", ratio)
	}
	if d.SupersetFrac < 0.6 || d.SupersetFrac > 0.98 {
		t.Errorf("superset fraction %.2f outside [0.6, 0.98] (paper: 0.80)", d.SupersetFrac)
	}

	// Case study survives at scale.
	cs, err := RunCaseStudy(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.ActualUpstreams) != 5 || cs.MemberOfLocalIXP || !cs.MemberOfRemoteIXP {
		t.Errorf("case study malformed: %+v", cs)
	}
}
