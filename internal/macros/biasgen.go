package macros

import (
	"context"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/process"
	"repro/internal/signature"
)

// BiasgenMacro is the bias generator: four resistor/diode legs producing
// the comparator array's class-A bias voltages on two pairs of nearly
// identical lines (vbn1/vbn2 and vbp1/vbp2). Its fault simulation is
// performed through the comparator co-simulation testbench — a bias fault
// matters exactly through its effect on the comparators it feeds — with
// one crucial difference: a bias shift is common to all of the vehicle's
// 2^N slices, so an offset signature is common-mode and does not cause
// missing codes.
type BiasgenMacro struct {
	cmp *ComparatorMacro
}

// NewBiasgen returns the bias generator macro simulated on the given
// comparator. Sharing the pipeline's comparator shares its fault-free
// memos too: one design-offset bisection and one nominal reference per
// setting serve the comparator and the biasgen analyses alike.
func NewBiasgen(cmp *ComparatorMacro) *BiasgenMacro {
	return &BiasgenMacro{cmp: cmp}
}

// Name implements Macro.
func (m *BiasgenMacro) Name() string { return "biasgen" }

// Count implements Macro.
func (m *BiasgenMacro) Count() int { return 1 }

// Respond implements Macro.
func (m *BiasgenMacro) Respond(ctx context.Context, f *faults.Fault, opt RespondOpts) (*signature.Response, error) {
	resp, err := m.cmp.Respond(ctx, f, opt)
	if err != nil {
		return nil, err
	}
	// Bias deviations shift every slice identically.
	if resp.Voltage == signature.VSigOffset || resp.Voltage == signature.VSigNone {
		resp.CommonMode = true
		resp.MissingCode = propagateSlice(m.cmp.Veh, resp)
	}
	return resp, nil
}

// Layout implements Macro: four legs (poly resistor + diode device) and
// the four bias output lines leaving in metal2. Pre-DfT the similar lines
// are adjacent; the dft flag interleaves them.
func (m *BiasgenMacro) Layout(dft bool) *layout.Cell {
	b := layout.NewBuilder("biasgen")
	b.DefaultWidth = 1.2

	devs := []devPlace{
		{name: "bg.mn1", d: "vbn1", g: "vbn1", s: "vss", x: 6, y: 10},
		{name: "bg.mn2", d: "vbn2", g: "vbn2", s: "vss", x: 18, y: 10},
		{name: "bg.mp1", d: "vbp1", g: "vbp1", s: "vddb", x: 30, y: 10, pmos: true},
		{name: "bg.mp2", d: "vbp2", g: "vbp2", s: "vddb", x: 42, y: 10, pmos: true},
	}
	terms := placeDevices(b, devs, "vddb")

	// The four poly resistors.
	res := []struct {
		name, a, bn string
		x, y        float64
	}{
		{"bg.rn1", "vddb", "vbn1", 4, 24},
		{"bg.rn2", "vddb", "vbn2", 16, 24},
		{"bg.rp1", "vbp1", "vss", 28, 24},
		{"bg.rp2", "vbp2", "vss", 40, 24},
	}
	for _, r := range res {
		b.Resistor(r.name, r.a, r.bn, r.x, r.y, 8, 1.2)
		terms = append(terms,
			terminal{net: r.a, x: r.x + 0.5, y: r.y, gate: true},
			terminal{net: r.bn, x: r.x + 7.5, y: r.y, gate: true},
		)
	}

	trunkY := map[string]float64{
		"vss":  4,
		"vddb": 30,
		"vbn1": 17,
		"vbn2": 18.5,
		"vbp1": 20,
		"vbp2": 21.5,
	}
	lineX := map[string]float64{"vddb": 54, "vss": 57}
	if dft {
		lineX["vbn1"], lineX["vbp1"], lineX["vbn2"], lineX["vbp2"] = 60, 63, 66, 69
	} else {
		lineX["vbn1"], lineX["vbn2"], lineX["vbp1"], lineX["vbp2"] = 60, 63, 66, 69
	}
	routeNets(b, terms, trunkY, lineX)
	drawLines(b, lineX, 2, 34)

	b.C.MarkPort("vbn1", "vbn2", "vbp1", "vbp2", "vddb", "vss")
	return b.C
}

// ensure process import is retained for future layout extensions.
var _ = process.Metal1
