package macros

import (
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/spice"
)

// This file is the macro side of the compile-once/revalue-many split:
// every macro obtains the simulation engine for one analysis through
// checkoutEngine, and keeps it for all of that analysis's simulations
// (sources move between them through Engine.Revalue). The ladder is:
//
//  1. fault-free, pool hit + successful rebind → CtrRebindHits (no
//     netlist build, no stamp recompile; sparse patterns survive
//     inside the engine)
//  2. fault-free, pool miss → fresh build with the base binding
//     recorded alongside, pooled on release → CtrFullRebuilds
//  3. faulty → fresh build + inject, dropped on release
//     → CtrFullRebuilds
//
// A failed rebind (binding does not cover the pooled circuit, unknown
// label, kind mismatch) discards the pooled engine and falls to 2 —
// a structural mismatch can never be silently served.

// engineCheckout describes how one macro obtains an engine for a single
// analysis.
type engineCheckout struct {
	// key pins the compiled fault-free topology this checkout needs.
	key engineKey
	// f and io are the fault under analysis (f nil = fault-free).
	f  *faults.Fault
	io faults.InjectOptions
	// build constructs the fault-free testbench into the given builder:
	// a plain one for a simulation circuit, a recording one
	// (netlist.NewRecorder) for the base binding. One construction path
	// serves both, so a recorded binding cannot drift from a built
	// circuit.
	build func(*netlist.Builder)
}

// checkoutEngine returns an engine for the checkout plus a release
// function (nil when the engine must not be pooled: no pool attached,
// or a faulty circuit). Callers must invoke release only after
// extracting every result that aliases engine-owned storage.
func checkoutEngine(opt RespondOpts, co engineCheckout) (*spice.Engine, func(), error) {
	if co.f != nil || opt.Pool == nil {
		b := netlist.NewBuilder()
		co.build(b)
		if co.f != nil {
			if err := faults.Inject(b.C, *co.f, procShared, co.io); err != nil {
				return nil, nil, err
			}
		}
		opt.Metrics.Add(obs.CtrFullRebuilds, 1)
		return spice.New(b.C, opt.simOptions()), nil, nil
	}
	if eng := opt.Pool.acquire(co.key); eng != nil {
		eng.SetMetrics(opt.Metrics)
		// The recorded base binding holds bit-for-bit the element values
		// of a fresh build; Covers guards that it spans the pooled
		// circuit.
		bind := opt.Pool.baseBinding(co.key, opt.Var, co.build)
		if bind.Covers(eng.Ckt) && eng.Revalue(bind) == nil {
			opt.Metrics.Add(obs.CtrRebindHits, 1)
			if eng.PatternLearned() {
				opt.Metrics.Add(obs.CtrPatternReuse, 1)
			}
			return eng, func() { opt.Pool.release(co.key, eng) }, nil
		}
		// A failed — possibly partial — rebind means this engine
		// cannot be proven to match the checkout: discard it and
		// rebuild below.
	}
	// Record the base binding during the build itself, so the first
	// pool hit on this key finds it cached instead of re-running the
	// builder.
	bind := &netlist.Binding{}
	b := netlist.NewRecorder(bind)
	co.build(b)
	opt.Pool.storeBinding(co.key, opt.Var, bind)
	eng := spice.New(b.C, opt.simOptions())
	opt.Metrics.Add(obs.CtrFullRebuilds, 1)
	return eng, func() { opt.Pool.release(co.key, eng) }, nil
}
