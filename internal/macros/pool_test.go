package macros

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/signature"
)

// TestPooledRespondBitIdentical pins the engine-pool reuse contract: a
// fault-free comparator response served from a warm pooled engine must be
// bit-for-bit the response a fresh engine produces.
func TestPooledRespondBitIdentical(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	ctx := context.Background()
	fresh, err := m.Respond(ctx, nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	pool := NewEnginePool()
	opt := RespondOpts{Var: Nominal(), CurrentsOnly: true, Pool: pool}
	first, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pool.size() == 0 {
		t.Fatal("fault-free run did not check its engine into the pool")
	}
	// The second call checks the warm engine out and retunes it.
	second, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, first) || !reflect.DeepEqual(fresh, second) {
		t.Fatalf("pooled responses diverge from fresh:\nfresh  %+v\nfirst  %+v\nsecond %+v",
			fresh, first, second)
	}
}

// TestFaultyRespondPoolIsolation is the pool-isolation contract: the
// pool holds fault-free engines only. Faulty runs — conductance-only or
// topology-changing — build their own engine and drop it, so they never
// change the pool's size, and fault-free responses after a faulty run
// stay bit-identical.
func TestFaultyRespondPoolIsolation(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	ctx := context.Background()
	pool := NewEnginePool()
	met := &obs.Metrics{}
	opt := RespondOpts{Var: Nominal(), CurrentsOnly: true, Pool: pool, Metrics: met}

	fresh, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	size := pool.size()
	if size == 0 {
		t.Fatal("fault-free run did not populate the pool")
	}

	// Conductance-only (a bridge between existing nets) and
	// topology-changing (an open splits m1's drain off o1).
	short := &faults.Fault{Kind: faults.Short, Nets: []string{"o1", "vss"}, Res: 0.2}
	open := &faults.Fault{Kind: faults.Open, Nets: []string{"o1"},
		FarTerminals: []faults.Terminal{{Device: "m1", Net: "o1"}}}
	for _, f := range []*faults.Fault{short, open} {
		var first *signature.Response
		for rep := 0; rep < 2; rep++ {
			rebuilds := met.Get(obs.CtrFullRebuilds)
			resp, err := m.Respond(ctx, f, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := pool.size(); got != size {
				t.Fatalf("%v run %d changed the pool: size %d -> %d", f, rep, size, got)
			}
			if met.Get(obs.CtrFullRebuilds) <= rebuilds {
				t.Fatalf("%v run %d did not count a full rebuild", f, rep)
			}
			if reflect.DeepEqual(fresh, resp) {
				t.Fatalf("%v produced the fault-free response; fault was not injected", f)
			}
			if first == nil {
				first = resp
			} else if !reflect.DeepEqual(first, resp) {
				t.Fatalf("repeated %v diverged:\nwant %+v\ngot  %+v", f, first, resp)
			}
		}
	}

	after, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, after) {
		t.Fatalf("fault-free response after a faulty run diverged:\nwant %+v\ngot  %+v", fresh, after)
	}
}

// TestFaultyRespondBuildsOnce pins that a faulty engine lives for one
// analysis: a full comparator response of a topology-changing fault
// builds its circuit exactly once, however many transients (lo, hi,
// the offset bisection) it runs on it.
func TestFaultyRespondBuildsOnce(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	ctx := context.Background()
	pool := NewEnginePool()
	// Settle the fault-free design offset first: its own engine build
	// is not part of the faulty analysis.
	if _, err := m.nominalOffset(ctx, false, pool, nil); err != nil {
		t.Fatal(err)
	}
	met := &obs.Metrics{}
	// Splitting the o1 clamp off its node unbalances the pair into an
	// offset, so the analysis runs the full 13-transient bisection.
	open := &faults.Fault{Kind: faults.Open, Nets: []string{"o1"},
		FarTerminals: []faults.Terminal{{Device: "m3d", Net: "o1"}}}
	resp, err := m.Respond(ctx, open, RespondOpts{Var: Nominal(), Pool: pool, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigOffset {
		t.Fatalf("signature %v: the open no longer exercises the bisection", resp.Voltage)
	}
	if n := met.Get(obs.CtrFullRebuilds); n != 1 {
		t.Fatalf("full_rebuilds = %d for one faulty analysis, want 1", n)
	}
}

// respCloseTo reports whether two ladder responses carry the same
// classification and numerically agree to within rel (relative, with a
// small absolute floor) on the analog measurements. The low-rank update
// path reproduces the classic solve within the Newton convergence
// contract rather than bit-for-bit, so responses straddling the two
// paths are compared at solver accuracy.
func respCloseTo(a, b *signature.Response, rel float64) bool {
	if a.Voltage != b.Voltage || a.MissingCode != b.MissingCode ||
		a.CommonMode != b.CommonMode || a.StuckVal != b.StuckVal ||
		len(a.Currents) != len(b.Currents) {
		return false
	}
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-12+rel*math.Max(math.Abs(x), math.Abs(y))
	}
	if !close(a.OffsetV, b.OffsetV) {
		return false
	}
	for k, v := range a.Currents {
		w, ok := b.Currents[k]
		if !ok || !close(v, w) {
			return false
		}
	}
	return true
}

// TestLadderBaselineCacheBitIdentical pins the baseline-memo contract on
// the ladder: a class analysis served a cached nominal tap vector must
// produce a deterministic response agreeing with a cache-free recompute
// (bitwise fault-free; within the solver contract for faulty runs,
// which a cache-armed analysis routes through the low-rank update
// path), the hit must be counted, and faulty results must never poison
// the fault-free cache.
func TestLadderBaselineCacheBitIdentical(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	ctx := context.Background()
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25}

	want, err := l.Respond(ctx, f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}

	met := &obs.Metrics{}
	base := NewBaselines()
	opt := RespondOpts{Var: Nominal(), Base: base, Metrics: met}
	first, err := l.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 0 {
		t.Fatalf("first analysis hit a cold cache (%d hits)", n)
	}
	second, err := l.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 1 {
		t.Fatalf("second analysis: %d baseline hits, want 1", n)
	}
	// A bridge between existing taps is rank-1-updatable: both analyses
	// must have taken the shared-factorization path, never falling back.
	if n := met.Get(obs.CtrRank1Solves); n != 2 {
		t.Fatalf("rank1_solves = %d, want 2", n)
	}
	if n := met.Get(obs.CtrRank1Fallbacks); n != 0 {
		t.Fatalf("rank1_fallbacks = %d, want 0", n)
	}
	// Cache-armed analyses are deterministic among themselves and agree
	// with the classic path at solver accuracy.
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated cached analyses diverge:\nfirst  %+v\nsecond %+v", first, second)
	}
	if !respCloseTo(want, first, 1e-9) {
		t.Fatalf("low-rank response disagrees with classic path beyond solver accuracy:\nwant  %+v\ngot   %+v",
			want, first)
	}

	// A different die must not see this variation's baseline.
	other := Nominal()
	other.RhoScale = 1.01
	if _, err := l.Respond(ctx, f, RespondOpts{Var: other, Base: base, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 1 {
		t.Fatalf("variation change reused a stale baseline (%d hits)", n)
	}

	// The fault-free ladder itself, analysed through the same cache, must
	// match a cache-free run — the faulty analyses cannot have stored
	// their taps.
	wantFree, err := l.Respond(ctx, nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	gotFree, err := l.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantFree, gotFree) {
		t.Fatalf("fault-free response through a used cache diverged:\nwant %+v\ngot  %+v", wantFree, gotFree)
	}
}

// TestComparatorGOSBaselineCache exercises the comparator's memoised
// fault-free reference on the gate-oxide-short worst-case ranking: the
// second pinhole analysis must hit the cache and return the identical
// worst-case signature.
func TestComparatorGOSBaselineCache(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	ctx := context.Background()
	f := &faults.Fault{Kind: faults.GOSPinhole, Device: "m1"}

	want, err := m.Respond(ctx, f, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	met := &obs.Metrics{}
	opt := RespondOpts{Var: Nominal(), CurrentsOnly: true,
		Base: NewBaselines(), Pool: NewEnginePool(), Metrics: met}
	first, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n < 1 {
		t.Fatalf("second pinhole analysis recomputed the nominal reference (%d hits)", n)
	}
	if !reflect.DeepEqual(want, first) || !reflect.DeepEqual(want, second) {
		t.Fatalf("cached-reference responses diverge:\nwant   %+v\nfirst  %+v\nsecond %+v",
			want, first, second)
	}
}
