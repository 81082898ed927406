package digital

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// halfAdder builds sum = a xor b, carry = a and b.
func halfAdder() *Circuit {
	c := &Circuit{Inputs: []string{"a", "b"}, Outputs: []string{"sum", "carry"}}
	c.AddGate("g1", Xor, "sum", "a", "b")
	c.AddGate("g2", And, "carry", "a", "b")
	return c
}

func TestGateFunctions(t *testing.T) {
	cases := []struct {
		ty   GateType
		in   []bool
		want bool
	}{
		{Buf, []bool{true}, true},
		{Not, []bool{true}, false},
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{Or, []bool{false, false}, false},
		{Or, []bool{true, false}, true},
		{Nand, []bool{true, true}, false},
		{Nor, []bool{false, false}, true},
		{Xor, []bool{true, true}, false},
		{Xor, []bool{true, false}, true},
	}
	for _, cse := range cases {
		c := &Circuit{Inputs: []string{"a", "b"}, Outputs: []string{"o"}}
		c.AddGate("g", cse.ty, "o", "a", "b")
		in := map[string]bool{"a": cse.in[0]}
		if len(cse.in) > 1 {
			in["b"] = cse.in[1]
		}
		res, err := c.Eval(in, Fault{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Values["o"] != cse.want {
			t.Errorf("%v(%v) = %v, want %v", cse.ty, cse.in, res.Values["o"], cse.want)
		}
	}
	if GateType(99).String() == "" || And.String() != "and" {
		t.Error("String")
	}
}

func TestHalfAdderTruthTable(t *testing.T) {
	c := halfAdder()
	for _, tc := range []struct{ a, b, sum, carry bool }{
		{false, false, false, false},
		{true, false, true, false},
		{false, true, true, false},
		{true, true, false, true},
	} {
		res, err := c.Eval(map[string]bool{"a": tc.a, "b": tc.b}, Fault{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Values["sum"] != tc.sum || res.Values["carry"] != tc.carry {
			t.Errorf("(%v,%v) -> %v,%v", tc.a, tc.b, res.Values["sum"], res.Values["carry"])
		}
		if res.IDDQ || res.Unstable {
			t.Error("fault-free eval must be quiet and stable")
		}
	}
}

func TestTopoOrderIndependent(t *testing.T) {
	// Gates added out of order must still evaluate correctly.
	c := &Circuit{Inputs: []string{"a"}, Outputs: []string{"o"}}
	c.AddGate("g2", Not, "o", "mid") // consumer first
	c.AddGate("g1", Not, "mid", "a")
	res, err := c.Eval(map[string]bool{"a": true}, Fault{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["o"] != true {
		t.Fatal("double inversion")
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	c := &Circuit{Inputs: []string{"a"}, Outputs: []string{"x"}}
	c.AddGate("g1", Not, "x", "y")
	c.AddGate("g2", Not, "y", "x")
	if _, err := c.Eval(map[string]bool{"a": true}, Fault{}); err == nil {
		t.Fatal("loop must be detected")
	}
}

func TestStuckAtInput(t *testing.T) {
	c := halfAdder()
	res, err := c.Eval(map[string]bool{"a": true, "b": false},
		Fault{Kind: StuckAt, Net: "a", Val: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["sum"] != false {
		t.Fatal("stuck-at-0 on a must force sum low")
	}
}

func TestStuckAtOutputNet(t *testing.T) {
	c := halfAdder()
	res, err := c.Eval(map[string]bool{"a": true, "b": true},
		Fault{Kind: StuckAt, Net: "carry", Val: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["carry"] != false {
		t.Fatal("stuck-at on gate output must hold")
	}
}

func TestBridgeIDDQ(t *testing.T) {
	c := halfAdder()
	// a=1, b=0: sum=1, carry=0 → bridging sum/carry drives opposite
	// values → IDDQ flag and wired-AND pulls both low.
	res, err := c.Eval(map[string]bool{"a": true, "b": false},
		Fault{Kind: Bridge, Net: "sum", Net2: "carry"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IDDQ {
		t.Fatal("opposing bridge must raise IDDQ")
	}
	if res.Values["sum"] != false || res.Values["carry"] != false {
		t.Fatal("wired-AND must pull both low")
	}
	// a=b=1: sum=0, carry=1 → also opposing.
	res2, _ := c.Eval(map[string]bool{"a": true, "b": true},
		Fault{Kind: Bridge, Net: "sum", Net2: "carry"})
	if !res2.IDDQ {
		t.Fatal("opposing values second case")
	}
	// a=b=0: sum=0, carry=0 → agreeing: no IDDQ, no logic change.
	res3, _ := c.Eval(map[string]bool{"a": false, "b": false},
		Fault{Kind: Bridge, Net: "sum", Net2: "carry"})
	if res3.IDDQ {
		t.Fatal("agreeing bridge must be quiet")
	}
}

func TestBridgeFeedbackUnstable(t *testing.T) {
	// Bridging a net to its own inversion cannot settle.
	c := &Circuit{Inputs: []string{"a"}, Outputs: []string{"o"}}
	c.AddGate("g1", Not, "o", "a")
	res, err := c.Eval(map[string]bool{"a": true},
		Fault{Kind: Bridge, Net: "a", Net2: "o"})
	if err != nil {
		t.Fatal(err)
	}
	// a=1 → o=0 → bridge pulls a to 0 → o=1 → conflict again.
	if !res.IDDQ {
		t.Fatal("oscillating bridge must raise IDDQ")
	}
	_ = res.Unstable // oscillation may or may not settle via wired-AND; IDDQ is the guarantee
}

func TestIDDQOnlyFault(t *testing.T) {
	c := halfAdder()
	res, err := c.Eval(map[string]bool{"a": true, "b": true}, Fault{IDDQOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IDDQ {
		t.Fatal("IDDQ-only fault must flag")
	}
	if res.Values["sum"] != false || res.Values["carry"] != true {
		t.Fatal("IDDQ-only fault must not change logic")
	}
}

// Property: for a chain of inverters, output parity matches chain length,
// and a stuck-at anywhere forces a computable value.
func TestQuickInverterChain(t *testing.T) {
	f := func(nRaw uint8, in bool, stuckPos uint8, stuckVal bool) bool {
		n := int(nRaw%10) + 1
		c := &Circuit{Inputs: []string{netN(0)}, Outputs: []string{netN(n)}}
		for i := 0; i < n; i++ {
			c.AddGate(netN(i+1)+"g", Not, netN(i+1), netN(i))
		}
		res, err := c.Eval(map[string]bool{netN(0): in}, Fault{})
		if err != nil {
			return false
		}
		want := in != (n%2 == 1)
		if res.Values[netN(n)] != want {
			return false
		}
		// Stuck-at at position p: downstream value determined by parity
		// from there.
		p := int(stuckPos) % (n + 1)
		res2, err := c.Eval(map[string]bool{netN(0): in},
			Fault{Kind: StuckAt, Net: netN(p), Val: stuckVal})
		if err != nil {
			return false
		}
		want2 := stuckVal != ((n-p)%2 == 1)
		return res2.Values[netN(n)] == want2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func netN(i int) string {
	return "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestBridgeWiredANDMissesDrivenFanout pins a known limit of the bridge
// model: the wired-AND is written after each pass, but the next pass
// re-evaluates the driver before its loads, so the fanout of a
// gate-driven bridged net never sees the resolved value and the
// evaluation ends unstable. A fix changes decoder answers; it must
// update this test on purpose.
func TestBridgeWiredANDMissesDrivenFanout(t *testing.T) {
	c := &Circuit{Inputs: []string{"a", "b"}, Outputs: []string{"ox", "oy"}}
	c.AddGate("gx", Buf, "x", "a")
	c.AddGate("gy", Buf, "y", "b")
	c.AddGate("gox", Buf, "ox", "x")
	res, err := c.Eval(map[string]bool{"a": true, "b": false}, Fault{Kind: Bridge, Net: "x", Net2: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IDDQ || !res.Unstable || res.Values["x"] || res.Values["y"] || !res.Values["ox"] {
		t.Fatalf("bridge on driven nets: x=%v y=%v ox=%v iddq=%v unstable=%v, want x=y=false ox=true iddq unstable",
			res.Values["x"], res.Values["y"], res.Values["ox"], res.IDDQ, res.Unstable)
	}
	// Bridged primary inputs have no driver to re-assert them, so the
	// wired-AND reaches their loads.
	c2 := &Circuit{Inputs: []string{"a", "b"}, Outputs: []string{"oa"}}
	c2.AddGate("goa", Buf, "oa", "a")
	res, err = c2.Eval(map[string]bool{"a": true, "b": false}, Fault{Kind: Bridge, Net: "a", Net2: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IDDQ || res.Unstable || res.Values["oa"] {
		t.Fatalf("bridge on inputs: oa=%v iddq=%v unstable=%v, want oa=false iddq stable",
			res.Values["oa"], res.IDDQ, res.Unstable)
	}
}

// refEval is the one-pattern evaluation loop the lane-parallel EvalInto
// replaced, kept as its differential reference: val holds one bool per
// slot, inputs set by the caller.
func refEval(p *program, val, def []bool, f Fault) (iddq, unstable bool) {
	slot := func(name string) int {
		if i, ok := p.index[name]; ok {
			return i
		}
		return -1
	}
	read := func(idx int) bool { return idx >= 0 && val[idx] }
	write := func(idx int, v bool) {
		if idx >= 0 {
			val[idx] = v
			def[idx] = true
		}
	}
	gate := func(g *pgate) bool {
		switch g.typ {
		case Buf:
			return val[g.in[0]]
		case Not:
			return !val[g.in[0]]
		case And, Nand:
			out := true
			for _, in := range g.in {
				out = out && val[in]
			}
			return out != (g.typ == Nand)
		case Or, Nor:
			out := false
			for _, in := range g.in {
				out = out || val[in]
			}
			return out != (g.typ == Nor)
		case Xor:
			out := false
			for _, in := range g.in {
				out = out != val[in]
			}
			return out
		}
		return false
	}
	fNet, fNet2 := -1, -1
	if f.Kind != FaultNone {
		fNet = slot(f.Net)
		if f.Kind == Bridge {
			fNet2 = slot(f.Net2)
		}
	}
	iddq = f.IDDQOnly
	if f.Kind == StuckAt {
		write(fNet, f.Val)
	}
	for pass := 0; pass < 4; pass++ {
		changed := false
		for gi := range p.gates {
			g := &p.gates[gi]
			nv := gate(g)
			if f.Kind == StuckAt && g.out == int32(fNet) {
				nv = f.Val
			}
			if !def[g.out] || val[g.out] != nv {
				val[g.out] = nv
				def[g.out] = true
				changed = true
			}
		}
		if f.Kind == Bridge {
			if a, b := read(fNet), read(fNet2); a != b {
				iddq = true
				write(fNet, a && b)
				write(fNet2, a && b)
				changed = true
			}
		}
		if !changed {
			return iddq, false
		}
	}
	return iddq, true
}

// fuzzCircuit builds a feed-forward network from shape bytes: up to 6
// inputs, then up to 24 gates, each reading 1–3 earlier nets (or a net
// nothing drives), added in shuffled order so the topological sort is
// exercised too. It returns the circuit and every net a fault may name,
// including one the circuit does not contain.
func fuzzCircuit(shape []byte, rng *rand.Rand) (*Circuit, []string) {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := int(shape[0])
		shape = shape[1:]
		return b
	}
	c := &Circuit{}
	nets := []string{}
	for i, n := 0, 1+next()%6; i < n; i++ {
		c.Inputs = append(c.Inputs, fmt.Sprintf("i%d", i))
		nets = append(nets, c.Inputs[i])
	}
	var gates []*Gate
	for gi, n := 0, next()%25; gi < n; gi++ {
		g := &Gate{Name: fmt.Sprintf("g%d", gi), Type: GateType(next() % 7), Out: fmt.Sprintf("w%d", gi)}
		arity := 1 + next()%3
		for k := 0; k < arity; k++ {
			if sel := next(); sel == 255 {
				g.In = append(g.In, "floating")
			} else {
				g.In = append(g.In, nets[sel%len(nets)])
			}
		}
		gates = append(gates, g)
		nets = append(nets, g.Out)
	}
	for _, i := range rng.Perm(len(gates)) {
		g := gates[i]
		c.AddGate(g.Name, g.Type, g.Out, g.In...)
	}
	return c, append(nets, "floating", "ghost")
}

// FuzzEvalLanes checks the 64-lane EvalInto against the one-pattern
// reference loop on random feed-forward circuits, random stuck-at,
// bridge and IDDQ-only faults and 64 random input patterns: every lane's
// net values, IDDQ and instability must match.
func FuzzEvalLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		c, nets := fuzzCircuit(shape, rng)
		fault := Fault{Kind: FaultKind(rng.Intn(3)), Net: nets[rng.Intn(len(nets))],
			Net2: nets[rng.Intn(len(nets))], Val: rng.Intn(2) == 1, IDDQOnly: rng.Intn(4) == 0}
		s, err := c.NewScratch()
		if err != nil {
			t.Fatal(err)
		}
		p, _ := c.compiled()
		patterns := make([]uint64, len(p.in))
		for i, idx := range p.in {
			patterns[i] = rng.Uint64()
			s.Set(idx, patterns[i])
		}
		iddq, unstable, err := c.EvalInto(s, fault)
		if err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < 64; lane++ {
			val, def := make([]bool, len(p.nets)), make([]bool, len(p.nets))
			for i, idx := range p.in {
				val[idx], def[idx] = patterns[i]>>lane&1 == 1, true
			}
			wantIDDQ, wantUnstable := refEval(p, val, def, fault)
			if iddq>>lane&1 == 1 != wantIDDQ || unstable>>lane&1 == 1 != wantUnstable {
				t.Fatalf("fault %+v lane %d: iddq=%v unstable=%v, want %v %v", fault, lane,
					iddq>>lane&1 == 1, unstable>>lane&1 == 1, wantIDDQ, wantUnstable)
			}
			for idx, want := range val {
				if s.Val(idx)>>lane&1 == 1 != want {
					t.Fatalf("fault %+v lane %d: net %s = %v, want %v", fault, lane,
						p.nets[idx], !want, want)
				}
			}
		}
	})
}
