package macros

import (
	"context"
	"errors"
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
	if _, err := m.nominalOffset(ctx, false, pool); err != nil {
		t.Fatal(err)
	}
	met := &obs.Metrics{}
	// Splitting the o1 clamp off its node unbalances the pair into an
	// offset, so the analysis runs the lo/hi transients and all 11
	// bisection probes.
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

// TestLadderBaselineCacheBitIdentical pins the fault-free memos held on
// the ladder: a fresh macro is a cold cache; a class analysis served the
// memoised nominal tap vector is deterministic and agrees with the build
// path (at solver accuracy: a faulty solve takes the rank-1 update
// path), the hit is counted, another variation misses, and faulty
// results never poison the fault-free memo.
func TestLadderBaselineCacheBitIdentical(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	ctx := context.Background()
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25}

	met := &obs.Metrics{}
	opt := RespondOpts{Var: Nominal(), Metrics: met}
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
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated cached analyses diverge:\nfirst  %+v\nsecond %+v", first, second)
	}

	// The reference: the build-inject-factor path on a fresh macro.
	want, wantHi, wantLo, err := NewLadder(DefaultVehicle()).buildTaps(ctx, f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	got, gotHi, gotLo, err := l.solveTaps(ctx, f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-12+1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	if !close(wantHi, gotHi) || !close(wantLo, gotLo) {
		t.Fatalf("terminal currents: rank-1 (%g, %g), build path (%g, %g)", gotHi, gotLo, wantHi, wantLo)
	}
	for k := range want {
		if !close(want[k], got[k]) {
			t.Fatalf("tap %d: rank-1 %.15g, build path %.15g", k, got[k], want[k])
		}
	}

	// A different die must not see this variation's baseline.
	other := Nominal()
	other.RhoScale = 1.01
	if _, err := l.Respond(ctx, f, RespondOpts{Var: other, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 1 {
		t.Fatalf("variation change reused a stale baseline (%d hits)", n)
	}

	// The fault-free ladder, analysed through the used memo, must match
	// a fresh macro's — the faulty analyses cannot have stored their
	// taps.
	wantFree, err := NewLadder(DefaultVehicle()).Respond(ctx, nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	gotFree, err := l.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantFree, gotFree) {
		t.Fatalf("fault-free response through a used memo diverged:\nwant %+v\ngot  %+v", wantFree, gotFree)
	}
}

// TestRank1CountersReachSpans: the rank-1 counters are added inside a
// span, so trace sinks and the per-stage run metrics see them — one
// solve for a tap bridge, one fallback for a topology-changing open.
func TestRank1CountersReachSpans(t *testing.T) {
	ctx := context.Background()
	count := func(f *faults.Fault) (solves, fallbacks int64) {
		t.Helper()
		agg := obs.NewAgg()
		opt := RespondOpts{Var: Nominal(), Obs: obs.New(agg), Metrics: &obs.Metrics{}}
		if _, err := NewLadder(DefaultVehicle()).Respond(ctx, f, opt); err != nil {
			t.Fatal(err)
		}
		for _, st := range agg.Snapshot() {
			solves += st.Counters[obs.CtrRank1Solves.Name()]
			fallbacks += st.Counters[obs.CtrRank1Fallbacks.Name()]
		}
		return solves, fallbacks
	}
	bridge := &faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25}
	if s, fb := count(bridge); s != 1 || fb != 0 {
		t.Fatalf("tap bridge: spans sum rank1_solves = %d, rank1_fallbacks = %d; want 1, 0", s, fb)
	}
	open := &faults.Fault{Kind: faults.Open, Nets: []string{"t100"},
		FarTerminals: []faults.Terminal{{Device: "r100", Net: "t100"}}}
	if s, fb := count(open); s != 0 || fb != 1 {
		t.Fatalf("tap open: spans sum rank1_solves = %d, rank1_fallbacks = %d; want 0, 1", s, fb)
	}
}

// TestBiasgenSharesComparatorDesignOffset: the biasgen simulates on the
// comparator it was built with, so once a biasgen class has bisected,
// that comparator's design offset is a memo hit — one bisection per DfT
// setting serves both macros.
func TestBiasgenSharesComparatorDesignOffset(t *testing.T) {
	ctx := context.Background()
	cmp := NewComparator(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"vbn1", "vbn2"}, Res: 0.2}
	resp, err := NewBiasgen(cmp).Respond(ctx, f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigNone && resp.Voltage != signature.VSigOffset {
		t.Fatalf("biasgen class did not reach the offset bisection: %v", resp.Voltage)
	}
	_, hit, err := cmp.designOffset.Get(ctx, false, func() (float64, error) {
		return 0, errors.New("design offset recomputed")
	})
	if err != nil || !hit {
		t.Fatalf("comparator design offset after a biasgen bisection: hit=%v err=%v", hit, err)
	}
}

// TestComparatorGOSBaselineCache exercises the comparator's memoised
// fault-free reference on the gate-oxide-short worst-case ranking: the
// second pinhole analysis must hit the cache and return the identical
// worst-case signature.
func TestComparatorGOSBaselineCache(t *testing.T) {
	ctx := context.Background()
	f := &faults.Fault{Kind: faults.GOSPinhole, Device: "m1"}

	// A fresh macro is a cold cache: its reference is a recompute.
	want, err := NewComparator(DefaultVehicle()).Respond(ctx, f, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	m := NewComparator(DefaultVehicle())
	met := &obs.Metrics{}
	opt := RespondOpts{Var: Nominal(), CurrentsOnly: true, Pool: NewEnginePool(), Metrics: met}
	first, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 0 {
		t.Fatalf("first pinhole analysis hit a cold cache (%d hits)", n)
	}
	second, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 1 {
		t.Fatalf("second pinhole analysis: %d baseline hits, want 1", n)
	}
	if !reflect.DeepEqual(want, first) || !reflect.DeepEqual(want, second) {
		t.Fatalf("cached-reference responses diverge:\nwant   %+v\nfirst  %+v\nsecond %+v",
			want, first, second)
	}
}
