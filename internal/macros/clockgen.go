package macros

import (
	"context"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/spice"
)

// ClockgenMacro is the clock generator: per phase a four-inverter buffer
// chain (progressively sized) from the timing input phi to the heavily
// loaded distribution line clk. It is a digital cell: its quiescent
// supply current is (near) zero in every static state, which is why the
// paper found 93.8 % of its faults IDDQ-detectable.
// The cell itself is resolution-independent; the Veh field keeps the
// constructor uniform across the macro family.
type ClockgenMacro struct {
	// Veh is the vehicle spec (unused by the circuit: one buffer chain
	// per phase regardless of resolution).
	Veh Vehicle
}

// NewClockgen returns the clock generator macro of the given vehicle.
func NewClockgen(veh Vehicle) *ClockgenMacro { return &ClockgenMacro{Veh: veh} }

// Name implements Macro.
func (m *ClockgenMacro) Name() string { return "clockgen" }

// Count implements Macro.
func (m *ClockgenMacro) Count() int { return 1 }

// chain inverter widths (PMOS; NMOS is half).
var cgWidths = []float64{4, 8, 16, 32}

// buildClockgenCircuit constructs the standalone clock generator with
// static phase inputs.
func (m *ClockgenMacro) buildClockgenCircuit(phis [3]float64, v Variation) *netlist.Builder {
	b := netlist.NewBuilder()
	m.buildClockgenInto(b, phis, v)
	return b
}

// buildClockgenInto runs the construction against the given builder — a
// plain builder for a simulation circuit, a recording one for the
// rebind binding (one construction path, so the two cannot drift).
func (m *ClockgenMacro) buildClockgenInto(b *netlist.Builder, phis [3]float64, v Variation) {
	vdd := VDD * v.VddScale
	b.Vsrc("vddd", "vddd", "0", netlist.DC(vdd))
	nm, pm := nmosModel(v), pmosModel(v)
	for i := 1; i <= 3; i++ {
		b.Vsrc(fmt.Sprintf("vphi%d", i), fmt.Sprintf("phi%d", i), "0", netlist.DC(phis[i-1]*vdd))
		in := fmt.Sprintf("phi%d", i)
		for st, w := range cgWidths {
			out := fmt.Sprintf("cg%d_%d", i, st)
			if st == len(cgWidths)-1 {
				out = fmt.Sprintf("clk%d", i)
			}
			b.MOS(fmt.Sprintf("cg.mp%d_%d", i, st), out, in, "vddd", "vddd", w, 1, pm)
			b.MOS(fmt.Sprintf("cg.mn%d_%d", i, st), out, in, "0", "0", w/2, 1, nm)
			in = out
		}
	}
}

// clockgen test states: the three one-hot phase patterns plus all-idle.
var cgStates = [][3]float64{
	{1, 0, 0},
	{0, 1, 0},
	{0, 0, 1},
	{0, 0, 0},
}

// Respond implements Macro: a DC operating point per static state, with
// IDDQ and output-level observations. One engine serves all four states
// — the states differ only in the phase-source DC levels, which are
// retuned between operating points (B-side only, so each state's solve
// is bit-identical to a per-state fresh build: Newton restarts from the
// zero vector every time).
func (m *ClockgenMacro) Respond(ctx context.Context, f *faults.Fault, opt RespondOpts) (*signature.Response, error) {
	resp := &signature.Response{Currents: map[string]float64{}}
	vdd := VDD * opt.Var.VddScale
	stuck := false
	deviant := false
	isp := opt.span(obs.StageInject, m.Name())
	eng, release, err := checkoutEngine(opt, engineCheckout{
		key:   engineKey{macro: m.Name()},
		f:     f,
		io:    faults.InjectOptions{NonCat: opt.NonCat},
		build: func(b *netlist.Builder) { m.buildClockgenInto(b, cgStates[0], opt.Var) },
	})
	isp.End()
	if err != nil {
		return nil, err
	}
	if release != nil {
		defer release()
	}
	var phases netlist.Binding
	for si, st := range cgStates {
		sp := opt.span(obs.StageFaultSim, m.Name())
		phases.Reset()
		for i := 1; i <= 3; i++ {
			phases.SetWave(fmt.Sprintf("vphi%d", i), netlist.DC(st[i-1]*vdd))
		}
		if err := eng.Revalue(&phases); err != nil {
			sp.End()
			return nil, err
		}
		sol, err := eng.OP(ctx)
		sp.End()
		if err != nil {
			if f == nil || spice.IsCancelled(err) {
				return nil, err
			}
			resp.Voltage = signature.VSigMixed
			resp.MissingCode = true
			resp.SimError = err
			// Preserve key set: fill remaining states with zeros.
			for sj := range cgStates {
				k := fmt.Sprintf("iddq.s%d", sj)
				if _, ok := resp.Currents[k]; !ok {
					resp.Currents[k] = 0
				}
			}
			resp.Currents["iin.phi"] = 0
			return resp, nil
		}
		resp.Currents[fmt.Sprintf("iddq.s%d", si)] = sol.I("vddd")
		var iin float64
		for i := 1; i <= 3; i++ {
			if a := math.Abs(sol.I(fmt.Sprintf("vphi%d", i))); a > iin {
				iin = a
			}
		}
		if v, ok := resp.Currents["iin.phi"]; !ok || iin > v {
			resp.Currents["iin.phi"] = iin
		}
		// Chain of four inverters is non-inverting: clk_i follows phi_i.
		for i := 1; i <= 3; i++ {
			want := st[i-1] * vdd
			got := sol.V(fmt.Sprintf("clk%d", i))
			dev := math.Abs(got - want)
			switch {
			case dev > 0.5*vdd:
				stuck = true
			case dev > 0.25:
				deviant = true
			}
		}
	}
	if opt.CurrentsOnly {
		return resp, nil
	}
	csp := opt.span(obs.StageClassify, m.Name())
	switch {
	case stuck:
		// A dead clock kills every comparator: massive missing codes.
		resp.Voltage = signature.VSigStuck
		resp.MissingCode = true
	case deviant:
		resp.Voltage = signature.VSigClock
	default:
		resp.Voltage = signature.VSigNone
	}
	csp.End()
	return resp, nil
}

// Layout implements Macro: three buffer chains in NMOS/PMOS rows with the
// phase inputs entering on the left and the fat clock lines leaving on
// the right in metal2. The dft flag does not change the clock generator.
func (m *ClockgenMacro) Layout(bool) *layout.Cell {
	b := layout.NewBuilder("clockgen")
	b.DefaultWidth = 1.2
	var devs []devPlace
	for i := 1; i <= 3; i++ {
		in := fmt.Sprintf("phi%d", i)
		y := float64(10 + (i-1)*26)
		for st := range cgWidths {
			out := fmt.Sprintf("cg%d_%d", i, st)
			if st == len(cgWidths)-1 {
				out = fmt.Sprintf("clk%d", i)
			}
			x := float64(8 + st*12)
			devs = append(devs,
				devPlace{name: fmt.Sprintf("cg.mn%d_%d", i, st), d: out, g: in, s: "vss", x: x, y: y},
				devPlace{name: fmt.Sprintf("cg.mp%d_%d", i, st), d: out, g: in, s: "vddd", x: x, y: y + 12, pmos: true},
			)
			in = out
		}
	}
	terms := placeDevices(b, devs, "vddd")
	trunkY := map[string]float64{"vss": 3, "vddd": 87}
	for i := 1; i <= 3; i++ {
		base := float64(16 + (i-1)*26)
		trunkY[fmt.Sprintf("phi%d", i)] = base
		trunkY[fmt.Sprintf("clk%d", i)] = base + 2
		for st := 0; st < len(cgWidths)-1; st++ {
			trunkY[fmt.Sprintf("cg%d_%d", i, st)] = base + 3.5 + 1.5*float64(st)
		}
	}
	lineX := map[string]float64{
		"clk1": 62, "clk2": 65, "clk3": 68,
		"vddd": 72, "vss": 75,
		"phi1": 79, "phi2": 82, "phi3": 85,
	}
	routeNets(b, terms, trunkY, lineX)
	drawLines(b, lineX, 2, 90)
	b.C.MarkPort("phi1", "phi2", "phi3", "clk1", "clk2", "clk3", "vddd", "vss")
	return b.C
}
