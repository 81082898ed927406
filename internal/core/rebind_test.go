package core

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// sumCounter folds one counter across every stage of an aggregator
// snapshot (checkout counters land in the inject stage, solver counters
// in faultsim; pipeline-level assertions only care about totals).
func sumCounter(agg *obs.Agg, c obs.Counter) int64 {
	var n int64
	for _, st := range agg.Snapshot() {
		n += st.Counters[c.Name()]
	}
	return n
}

// TestRebindCounters pins the compile-once/revalue-many observability
// contract at the pipeline level: the fault-free engines behind class
// analyses (good-space dies, nominal parts) are served by pooled
// engines revalued in place (rebind_hits dominating full_rebuilds,
// compiled sparse patterns retained), while every faulty analysis —
// conductance-only or topology-changing — builds its own engine once.
func TestRebindCounters(t *testing.T) {
	agg := obs.NewAgg()
	p := NewPipeline(QuickConfig())
	p.Obs = obs.New(agg)
	ctx := context.Background()

	// Two analyses of a conductance-only class: the first also compiles
	// the good space and the nominal parts; the second only builds its
	// faulty engine.
	cls := faults.Class{Fault: faults.Fault{
		Kind: faults.Short, Nets: []string{"o1", "vss"}, Res: 0.2}, Count: 1}
	for i := 0; i < 2; i++ {
		before := sumCounter(agg, obs.CtrFullRebuilds)
		if _, err := p.AnalyzeClass(ctx, "comparator", cls, false, false); err != nil {
			t.Fatal(err)
		}
		if d := sumCounter(agg, obs.CtrFullRebuilds) - before; i == 1 && d != 1 {
			t.Fatalf("repeated conductance-only analysis counted %d full rebuilds, want 1", d)
		}
	}
	rebinds := sumCounter(agg, obs.CtrRebindHits)
	rebuilds := sumCounter(agg, obs.CtrFullRebuilds)
	if rebinds == 0 {
		t.Fatal("no rebind_hits on a repeated conductance-only class analysis")
	}
	if rebuilds == 0 {
		t.Fatal("the cold pool must count its first builds as full_rebuilds")
	}
	if rebinds <= rebuilds {
		t.Fatalf("rebind_hits (%d) must dominate full_rebuilds (%d) on a warm pool",
			rebinds, rebuilds)
	}
	if sumCounter(agg, obs.CtrPatternReuse) == 0 {
		t.Fatal("rebind hits must retain compiled sparse patterns (pattern_reuse_hits = 0)")
	}

	// A topology-changing fault (an open splits a node) takes the
	// full-build path every time — full_rebuilds grows on each repeat.
	open := faults.Class{Fault: faults.Fault{
		Kind: faults.Open, Nets: []string{"o1"},
		FarTerminals: []faults.Terminal{{Device: "m1", Net: "o1"}}}, Count: 1}
	if _, err := p.AnalyzeClass(ctx, "comparator", open, false, false); err != nil {
		t.Fatal(err)
	}
	mid := sumCounter(agg, obs.CtrFullRebuilds)
	if mid <= rebuilds {
		t.Fatalf("topology-changing class did not count full rebuilds (%d -> %d)",
			rebuilds, mid)
	}
	if _, err := p.AnalyzeClass(ctx, "comparator", open, false, false); err != nil {
		t.Fatal(err)
	}
	if after := sumCounter(agg, obs.CtrFullRebuilds); after <= mid {
		t.Fatalf("repeated topology-changing class was served from the pool (%d -> %d)",
			mid, after)
	}
}
