package macros

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/spice"
)

// rebindMacro describes one macro's (Variation, slice) axes: how to
// build its fault-free testbench at a concrete pair, and how the slice
// is applied to a pooled engine (a B-side source retune). Biasgen
// delegates its circuit to the comparator, so the three circuit-owning
// macros cover the whole family.
type rebindMacro struct {
	name      string
	vref      float64
	leak      func(v Variation) bool
	build     func(b *netlist.Builder, v Variation, slice float64)
	canonical float64
	retune    func(v Variation, slice float64) *netlist.Binding
	slice     func(rng *rand.Rand) float64
}

// TestRevaluePropertyBitIdentical is the rebind analogue of the Plan /
// Inject drift guard: for hundreds of random (Variation, slice) pairs
// per macro, an engine checked out of the pool and Revalued in place
// must assemble bit-identical MNA systems — and, on a sampled subset,
// solve to bit-identical operating points — as an engine freshly built
// at exactly that pair.
func TestRevaluePropertyBitIdentical(t *testing.T) {
	n := 500
	solveEvery := 25
	if testing.Short() {
		n = 60
		solveEvery = 15
	}
	ctx := context.Background()

	cmp := NewComparator(DefaultVehicle())
	lad := NewLadder(DefaultVehicle())
	clk := NewClockgen(DefaultVehicle())

	macros := []rebindMacro{
		{
			name: cmp.Name(),
			vref: cmp.VRef,
			leak: func(v Variation) bool { return v.FFLeakA > 1e-9 },
			build: func(b *netlist.Builder, v Variation, slice float64) {
				cmp.buildComparatorInto(b, slice, RespondOpts{Var: v})
			},
			canonical: vinLow,
			retune: func(_ Variation, slice float64) *netlist.Binding {
				bind := &netlist.Binding{}
				bind.SetWave("vvin", netlist.DC(slice))
				return bind
			},
			slice: func(rng *rand.Rand) float64 {
				return vinLow + rng.Float64()*(vinHigh-vinLow)
			},
		},
		{
			name: lad.Name(),
			// The ladder has no stimulus slice: its sources are the fixed
			// reference rails, so the pair degenerates to the Variation.
			build: func(b *netlist.Builder, v Variation, _ float64) {
				lad.buildLadderInto(b, v)
			},
			slice: func(*rand.Rand) float64 { return 0 },
		},
		{
			name: clk.Name(),
			// Slice = static phase state index.
			build: func(b *netlist.Builder, v Variation, slice float64) {
				clk.buildClockgenInto(b, cgStates[int(slice)], v)
			},
			retune: func(v Variation, slice float64) *netlist.Binding {
				st := cgStates[int(slice)]
				vdd := VDD * v.VddScale
				bind := &netlist.Binding{}
				for i := 1; i <= 3; i++ {
					bind.SetWave(fmt.Sprintf("vphi%d", i), netlist.DC(st[i-1]*vdd))
				}
				return bind
			},
			slice: func(rng *rand.Rand) float64 { return float64(rng.Intn(len(cgStates))) },
		},
	}

	for _, mc := range macros {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(mc.name))*7919 + 0x5eed))
			pool := NewEnginePool()
			met := &obs.Metrics{}
			for i := 0; i < n; i++ {
				v := Draw(rng)
				slice := mc.slice(rng)
				opt := RespondOpts{Var: v, Pool: pool, Metrics: met}

				// Reference: built from scratch at this pair.
				fb := netlist.NewBuilder()
				mc.build(fb, v, slice)
				fresh := spice.New(fb.C, opt.simOptions())

				key := engineKey{macro: mc.name, vref: mc.vref,
					leak: mc.leak != nil && mc.leak(v)}
				canon := slice
				if mc.retune != nil {
					canon = mc.canonical
				}
				eng, release, err := checkoutEngine(opt, engineCheckout{
					key:   key,
					build: func(b *netlist.Builder) { mc.build(b, v, canon) },
				})
				if err != nil {
					t.Fatalf("pair %d: checkout: %v", i, err)
				}
				if release == nil {
					t.Fatalf("pair %d: fault-free checkout is not poolable", i)
				}
				if mc.retune != nil {
					if err := eng.Revalue(mc.retune(v, slice)); err != nil {
						t.Fatalf("pair %d: retune: %v", i, err)
					}
				}

				// The assembled MNA system must match bitwise in both stamp
				// modes (DC operating point and a transient step).
				for _, chk := range []struct {
					mode  netlist.StampMode
					t, dt float64
				}{{netlist.DCOp, 0, 0}, {netlist.Transient, 101e-9, 1e-10}} {
					fs, rs := fresh.StampChecksum(chk.mode, chk.t, chk.dt), eng.StampChecksum(chk.mode, chk.t, chk.dt)
					if fs != rs {
						t.Fatalf("pair %d (slice %g): mode %v stamp checksum %016x != fresh %016x",
							i, slice, chk.mode, rs, fs)
					}
				}

				// Sampled subset: the full operating-point solution, bitwise.
				if i%solveEvery == 0 {
					fsol, ferr := fresh.OP(ctx)
					rsol, rerr := eng.OP(ctx)
					if (ferr == nil) != (rerr == nil) {
						t.Fatalf("pair %d: OP error divergence: fresh %v, revalued %v", i, ferr, rerr)
					}
					if ferr == nil {
						if len(fsol.X) != len(rsol.X) {
							t.Fatalf("pair %d: solution dim %d != %d", i, len(rsol.X), len(fsol.X))
						}
						for j := range fsol.X {
							if math.Float64bits(fsol.X[j]) != math.Float64bits(rsol.X[j]) {
								t.Fatalf("pair %d: X[%d] = %x != fresh %x",
									i, j, math.Float64bits(rsol.X[j]), math.Float64bits(fsol.X[j]))
							}
						}
					}
				}
				release()
			}
			// The run must have been dominated by revalues: full builds only
			// on cold keys (bounded by the distinct leak variants).
			rebinds, rebuilds := met.Get(obs.CtrRebindHits), met.Get(obs.CtrFullRebuilds)
			if rebinds <= rebuilds {
				t.Fatalf("rebind_hits (%d) must dominate full_rebuilds (%d) over %d pairs",
					rebinds, rebuilds, n)
			}
		})
	}
}
