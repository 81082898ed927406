package macros

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/digital"
	"repro/internal/faults"
	"repro/internal/signature"
)

// gateFault is the gate-level model Respond simulates for f.
func gateFault(m *DecoderMacro, f *faults.Fault) digital.Fault {
	if f == nil {
		return faultNone()
	}
	df, _ := m.mapFault(f)
	return df
}

// perLevelDecode is the reference the word sweep must reproduce: one
// map-driven Eval per thermometer level, the output code read by name.
func perLevelDecode(t *testing.T, m *DecoderMacro, f *faults.Fault) (codes []int, iddq bool) {
	t.Helper()
	df := gateFault(m, f)
	for k := 0; k < m.Veh.Comparators(); k++ {
		in := map[string]bool{}
		for i := 1; i <= m.Veh.DecoderInputs(); i++ {
			in[tnet(i)] = i <= k
		}
		res, err := m.ckt.Eval(in, df)
		if err != nil {
			t.Fatal(err)
		}
		code := 0
		for bit := 0; bit < m.Veh.Bits; bit++ {
			if res.Values[fmt.Sprintf("b%d", bit)] {
				code |= 1 << bit
			}
		}
		codes = append(codes, code)
		iddq = iddq || res.IDDQ
	}
	return codes, iddq
}

// checkDecoderSweep compares the word sweep and Respond with the
// per-level reference for one fault.
func checkDecoderSweep(t *testing.T, m *DecoderMacro, f *faults.Fault) {
	t.Helper()
	wantCodes, wantIDDQ := perLevelDecode(t, m, f)
	var codes []int
	iddq, err := m.sweep(context.Background(), gateFault(m, f), func(k, code int) {
		if k != len(codes) {
			t.Fatalf("%v: level %d visited after %d levels", f, k, len(codes))
		}
		codes = append(codes, code)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != len(wantCodes) || iddq != wantIDDQ {
		t.Fatalf("%v: sweep gave %d levels iddq=%v, want %d iddq=%v",
			f, len(codes), iddq, len(wantCodes), wantIDDQ)
	}
	seen := make([]bool, m.Veh.Comparators())
	for k, code := range codes {
		if code != wantCodes[k] {
			t.Fatalf("%v: level %d decodes to %d, want %d", f, k, code, wantCodes[k])
		}
		seen[code] = true
	}
	missing := false
	for _, s := range seen {
		missing = missing || !s
	}
	wantV, wantI := signature.VSigNone, 0.0
	if missing {
		wantV = signature.VSigStuck
	}
	if wantIDDQ {
		wantI = 1e-3
	}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != wantV || resp.MissingCode != missing || resp.Currents["iddq.dc"] != wantI {
		t.Fatalf("%v: Respond = %v missing=%v iddq=%g, want %v missing=%v iddq=%g", f,
			resp.Voltage, resp.MissingCode, resp.Currents["iddq.dc"], wantV, missing, wantI)
	}
}

// decoderNets lists the decoder's signal nets (inputs, then gate
// outputs).
func decoderNets(m *DecoderMacro) []string {
	nets := append([]string(nil), m.ckt.Inputs...)
	for _, g := range m.ckt.Gates {
		nets = append(nets, g.Out)
	}
	return nets
}

// TestDecoderSweepMatchesPerLevel checks the 64-lane sweep against one
// evaluation per level: every stuck-at (both rails and the open's value)
// and every bridge pair of the 3-bit and 2-bit decoders — the 2-bit one
// fills 4 lanes of its word — and sampled 8-bit bridges across words.
func TestDecoderSweepMatchesPerLevel(t *testing.T) {
	exhaustive := func(bits int) {
		m := NewDecoder(Vehicle{Bits: bits})
		nets := decoderNets(m)
		checkDecoderSweep(t, m, nil)
		for i, a := range nets {
			checkDecoderSweep(t, m, &faults.Fault{Kind: faults.Open, Nets: []string{a}})
			for _, rail := range []string{"vddd", "vss"} {
				checkDecoderSweep(t, m, &faults.Fault{Kind: faults.Short, Nets: []string{a, rail}})
			}
			for _, b := range nets[i+1:] {
				checkDecoderSweep(t, m, &faults.Fault{Kind: faults.Short, Nets: []string{a, b}})
			}
		}
	}
	exhaustive(3)
	exhaustive(2)

	m := NewDecoder(DefaultVehicle())
	nets := decoderNets(m)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 12; i++ {
		a, b := nets[rng.Intn(len(nets))], nets[rng.Intn(len(nets))]
		if a == b {
			continue
		}
		checkDecoderSweep(t, m, &faults.Fault{Kind: faults.Short, Nets: []string{a, b}})
	}
	// Neighbouring one-hot lines across the lane-63/64 word boundary,
	// and a gate pinhole (bridge from a gate's input to its output).
	checkDecoderSweep(t, m, &faults.Fault{Kind: faults.Short, Nets: []string{"h064", "h065"}})
	checkDecoderSweep(t, m, &faults.Fault{Kind: faults.Short, Nets: []string{tnet(64), "n064"}})
	checkDecoderSweep(t, m, &faults.Fault{Kind: faults.GOSPinhole, Device: "and127.n"})
}
