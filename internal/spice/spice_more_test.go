package spice

import (
	"context"
	"math"
	"testing"

	"repro/internal/netlist"
)

func TestTransientScheduleSegments(t *testing.T) {
	b := netlist.NewBuilder()
	b.Vsrc("v1", "in", "0", netlist.PWL{T: []float64{0, 1e-9, 2e-3}, V: []float64{0, 1, 1}})
	b.R("r1", "in", "out", 1000)
	b.Cap("c1", "out", "0", 1e-6)
	e := New(b.C, DefaultOptions())
	tr, err := e.TransientSchedule(context.Background(), []TranSeg{
		{Until: 0.5e-3, Dt: 50e-6},
		{Until: 1.0e-3, Dt: 5e-6}, // fine mid-window
		{Until: 3.0e-3, Dt: 50e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Spacing must actually change inside the fine window.
	var coarse, fine int
	for i := 1; i < tr.Len(); i++ {
		dt := tr.Times[i] - tr.Times[i-1]
		switch {
		case tr.Times[i] <= 0.5e-3 && dt > 40e-6:
			coarse++
		case tr.Times[i] > 0.5e-3 && tr.Times[i] <= 1.0e-3 && dt < 10e-6:
			fine++
		}
	}
	if coarse == 0 || fine == 0 {
		t.Fatalf("schedule not honoured: coarse=%d fine=%d", coarse, fine)
	}
	// Physics must still be right: v(3tau=3ms) ≈ 0.95.
	if v := tr.AtTime(3e-3).V("out"); v < 0.93 {
		t.Fatalf("v(3tau) = %g", v)
	}
}

// TestTransientSchedulePrefix pins the prefix identity a truncated
// transient relies on: the fixed-step integration is causal, so a
// schedule cut one nominal step past t* stores bit for bit the full
// schedule's points up to t*. One cut lands inside a coarse segment, the
// other right after a fine one.
func TestTransientSchedulePrefix(t *testing.T) {
	b := netlist.NewBuilder()
	b.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	b.Vsrc("vin", "in", "0", netlist.PWL{T: []float64{0, 0.4e-3, 0.6e-3, 3e-3}, V: []float64{0, 0, 5, 5}})
	b.R("r1", "in", "g", 1000)
	b.Cap("c1", "g", "0", 0.2e-6)
	b.PMOS("p1", "out", "g", "vdd", "vdd", 8, 1)
	b.NMOS("n1", "out", "g", "0", 4, 1)
	b.Cap("c2", "out", "0", 1e-9)
	full := []TranSeg{
		{Until: 0.5e-3, Dt: 50e-6},
		{Until: 1.0e-3, Dt: 5e-6}, // fine mid-window
		{Until: 3.0e-3, Dt: 50e-6},
	}
	e := New(b.C, DefaultOptions())
	ref, err := e.TransientSchedule(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	// The Tran aliases engine storage the next run reuses: copy it out.
	times := append([]float64(nil), ref.Times...)
	xs := make([][]float64, ref.Len())
	for i, x := range ref.Xs {
		xs[i] = append([]float64(nil), x...)
	}

	for _, tc := range []struct {
		name  string
		tStar float64
		cut   []TranSeg
	}{
		{"inside coarse", 2.02e-3, []TranSeg{full[0], full[1], {Until: 2.02e-3 + 50e-6, Dt: 50e-6}}},
		{"after fine", 1.0e-3, []TranSeg{full[0], full[1], {Until: 1.0e-3 + 50e-6, Dt: 50e-6}}},
	} {
		tr, err := e.TransientSchedule(context.Background(), tc.cut)
		if err != nil {
			t.Fatal(err)
		}
		if last := tr.Times[tr.Len()-1]; last > tc.tStar+50e-6 || last >= times[len(times)-1] {
			t.Fatalf("%s: cut run ends at %g, want <= %g", tc.name, last, tc.tStar+50e-6)
		}
		n := 0
		for i, tt := range times {
			if tt > tc.tStar {
				break
			}
			n++
			if i >= tr.Len() || math.Float64bits(tr.Times[i]) != math.Float64bits(tt) {
				t.Fatalf("%s: point %d time differs from the full run's %g", tc.name, i, tt)
			}
			for k, v := range xs[i] {
				if math.Float64bits(tr.Xs[i][k]) != math.Float64bits(v) {
					t.Fatalf("%s: point %d (t=%g) unknown %d: %v, full run %v", tc.name, i, tt, k, tr.Xs[i][k], v)
				}
			}
		}
		if n < 2 || tr.Len() <= n || tr.Times[n] <= tc.tStar {
			t.Fatalf("%s: cut run stores %d points, %d up to t*", tc.name, tr.Len(), n)
		}
	}
}

func TestOPAtTimeDependentSource(t *testing.T) {
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.PWL{T: []float64{0, 1}, V: []float64{0, 10}})
	b.R("r1", "a", "0", 1)
	e := New(b.C, DefaultOptions())
	at0, err := e.OPAt(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	at1, err := e.OPAt(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if at0.V("a") != 0 || math.Abs(at1.V("a")-10) > 1e-9 {
		t.Fatalf("OPAt: %g %g", at0.V("a"), at1.V("a"))
	}
}

func TestFloatingNodeSolvable(t *testing.T) {
	// A node connected only through a capacitor (floating in DC) must
	// not make the operating point singular.
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.DC(5))
	b.R("r1", "a", "b", 1000)
	b.Cap("c1", "b", "float", 1e-12)
	sol, err := New(b.C, DefaultOptions()).OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.V("b"); math.Abs(v-5) > 1e-3 {
		t.Fatalf("b = %g", v)
	}
}

func TestCrossCoupledInverterPair(t *testing.T) {
	// A bistable: the DC OP finds a (meta)stable solution; with a seed
	// via a weak pull the transient settles to a valid state.
	b := netlist.NewBuilder()
	b.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	b.PMOS("p1", "q", "qb", "vdd", "vdd", 4, 2)
	b.NMOS("n1", "q", "qb", "0", 2, 2)
	b.PMOS("p2", "qb", "q", "vdd", "vdd", 4, 2)
	b.NMOS("n2", "qb", "q", "0", 2, 2)
	b.R("seed", "q", "vdd", 100e3) // weak asymmetry to escape metastability
	e := New(b.C, DefaultOptions())
	tr, err := e.Transient(context.Background(), 200e-9, 0.2e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Bistable: either stable state is legal; what matters is that the
	// pair settles to complementary logic levels, not the metastable
	// mid-point.
	q := tr.AtTime(200e-9).V("q")
	qb := tr.AtTime(200e-9).V("qb")
	hi, lo := math.Max(q, qb), math.Min(q, qb)
	if hi < 4.0 || lo > 1.0 {
		t.Fatalf("latch did not settle to complementary levels: q=%g qb=%g", q, qb)
	}
}

func TestSourceSteppingPath(t *testing.T) {
	// A stiff circuit starting far from the solution: several cascaded
	// high-gain stages with feedback. Mostly exercises the fallbacks.
	b := netlist.NewBuilder()
	b.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	prev := "vdd"
	for i := 0; i < 6; i++ {
		out := nodeNameX(i)
		b.PMOS("p"+out, out, prev, "vdd", "vdd", 40, 1)
		b.NMOS("n"+out, out, prev, "0", 20, 1)
		prev = out
	}
	b.R("fb", prev, nodeNameX(0), 10e3)
	sol, err := New(b.C, DefaultOptions()).OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		v := sol.V(nodeNameX(i))
		if v < -0.1 || v > 5.1 {
			t.Fatalf("stage %d out of rails: %g", i, v)
		}
	}
}

func nodeNameX(i int) string { return "s" + string(rune('0'+i)) }

func TestTranAtTimeBoundaries(t *testing.T) {
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.DC(1))
	b.R("r1", "a", "0", 1)
	tr, err := New(b.C, DefaultOptions()).Transient(context.Background(), 1e-6, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.AtTime(-1).V("a") != tr.At(0).V("a") {
		t.Fatal("before-start must clamp to first point")
	}
	if tr.AtTime(99).V("a") != tr.At(tr.Len()-1).V("a") {
		t.Fatal("after-end must clamp to last point")
	}
}

func TestNoConvergenceError(t *testing.T) {
	// Starve Newton of iterations: every fallback (gmin stepping, source
	// stepping) must also fail, and the error must say so.
	b := netlist.NewBuilder()
	b.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	b.PMOS("mp", "out", "in", "vdd", "vdd", 20, 1)
	b.NMOS("mn", "out", "in", "0", 10, 1)
	b.R("fb", "out", "in", 10e3)
	opt := DefaultOptions()
	opt.MaxIter = 1
	e := New(b.C, opt)
	if _, err := e.OP(context.Background()); err == nil {
		t.Fatal("1-iteration Newton must fail")
	}
	// Transient with starved iterations fails through the refinement
	// ladder too.
	if _, err := e.Transient(context.Background(), 1e-9, 0.1e-9); err == nil {
		t.Fatal("starved transient must fail")
	}
}

func TestOPGminSteppingRecovers(t *testing.T) {
	// A high-gain feedback loop that plain Newton from zero may struggle
	// with; with full iterations the fallback ladder must deliver a
	// solution regardless of which rung succeeds.
	b := netlist.NewBuilder()
	b.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	prev := "a0"
	b.Vsrc("vin", "a0", "0", netlist.DC(2.5))
	for i := 1; i <= 5; i++ {
		out := nodeNameX(i)
		b.PMOS("p"+out, out, prev, "vdd", "vdd", 60, 1)
		b.NMOS("n"+out, out, prev, "0", 30, 1)
		prev = out
	}
	sol, err := New(b.C, DefaultOptions()).OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Odd chain from mid-rail input: outputs at alternating rails.
	v := sol.V(nodeNameX(5))
	if v < -0.1 || v > 5.1 {
		t.Fatalf("out = %g", v)
	}
}

func TestVNodeGround(t *testing.T) {
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.DC(1))
	b.R("r1", "a", "0", 1)
	sol, err := New(b.C, DefaultOptions()).OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.VNode(netlist.Ground) != 0 {
		t.Fatal("ground voltage must be 0")
	}
}

func TestACSolutionVGround(t *testing.T) {
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.DC(1))
	b.R("r1", "a", "0", 1)
	e := New(b.C, DefaultOptions())
	op, _ := e.OP(context.Background())
	sols, err := e.AC(op, "v1", []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if sols[0].V("0") != 0 {
		t.Fatal("AC ground must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown AC node must panic")
		}
	}()
	_ = sols[0].V("zz")
}
