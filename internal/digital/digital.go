// Package digital is a small gate-level logic simulator with the fault
// models the decoder macro's defect-oriented analysis needs: stuck-at
// faults (from opens and supply shorts) and bridging faults between
// signal nets (from extra-material defects), the latter flagging an IDDQ
// violation whenever the bridged nets are driven to opposite values — the
// classic quiescent-current detection mechanism for digital CMOS.
package digital

import (
	"fmt"
	"sync"
)

// GateType enumerates the supported gate functions.
type GateType int

// Gate functions. Inputs beyond the gate's arity are ignored.
const (
	Buf GateType = iota
	Not
	And
	Or
	Nand
	Nor
	Xor
)

// String implements fmt.Stringer.
func (g GateType) String() string {
	switch g {
	case Buf:
		return "buf"
	case Not:
		return "not"
	case And:
		return "and"
	case Or:
		return "or"
	case Nand:
		return "nand"
	case Nor:
		return "nor"
	case Xor:
		return "xor"
	}
	return fmt.Sprintf("gate(%d)", int(g))
}

// Gate drives one output net from input nets.
type Gate struct {
	Name string
	Type GateType
	Out  string
	In   []string
}

// FaultKind selects the digital fault model.
type FaultKind int

const (
	// FaultNone: fault-free evaluation.
	FaultNone FaultKind = iota
	// StuckAt forces net Net to Val.
	StuckAt
	// Bridge wire-ANDs nets Net and Net2 and raises the IDDQ flag when
	// they are driven to opposite values.
	Bridge
)

// Fault is a digital fault instance.
type Fault struct {
	Kind FaultKind
	Net  string
	Net2 string
	Val  bool
	// IDDQOnly marks a defect (junction pinhole, parasitic device) that
	// raises quiescent current without any logic effect.
	IDDQOnly bool
}

// Circuit is a feed-forward gate network. Once built, a Circuit is safe
// for concurrent Eval calls: the lazily compiled index program, gates in
// topological order, is mutex-guarded (the decoder macro shares one
// Circuit across parallel fault-class analyses).
type Circuit struct {
	Inputs  []string
	Outputs []string
	Gates   []*Gate

	mu   sync.Mutex
	prog *program
}

// AddGate appends a gate.
func (c *Circuit) AddGate(name string, t GateType, out string, in ...string) {
	c.Gates = append(c.Gates, &Gate{Name: name, Type: t, Out: out, In: in})
	c.mu.Lock()
	c.prog = nil
	c.mu.Unlock()
}

// topo orders gates so that every gate follows its drivers and returns
// the order. Returns an error on combinational loops (which cannot occur
// in a well-formed decoder but can be created by severe faults
// elsewhere).
func topo(gates []*Gate) ([]*Gate, error) {
	driver := map[string]*Gate{}
	for _, g := range gates {
		driver[g.Out] = g
	}
	state := map[*Gate]int{} // 0 unseen, 1 visiting, 2 done
	var order []*Gate
	var visit func(g *Gate) error
	visit = func(g *Gate) error {
		switch state[g] {
		case 1:
			return fmt.Errorf("digital: combinational loop at %s", g.Name)
		case 2:
			return nil
		}
		state[g] = 1
		for _, in := range g.In {
			if d, ok := driver[in]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[g] = 2
		order = append(order, g)
		return nil
	}
	for _, g := range gates {
		if err := visit(g); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// program is the compiled, index-addressed form of the network — the
// gate-level analogue of the analog side's compile-once/revalue-many
// split. Net names resolve to dense slot indices once; evaluation then
// runs over slices with no map traffic and no name formatting.
type program struct {
	index map[string]int // net name → slot
	nets  []string       // slot → net name (Values reconstruction)
	in    []int          // slot per Circuit.Inputs entry, in order
	gates []pgate        // topological order, index-resolved
}

type pgate struct {
	typ GateType
	out int32
	in  []int32
}

// compiled returns the circuit's index program, building it on first
// use (invalidated by AddGate).
func (c *Circuit) compiled() (*program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog != nil {
		return c.prog, nil
	}
	ordered, err := topo(c.Gates)
	if err != nil {
		return nil, err
	}
	p := &program{index: map[string]int{}}
	slot := func(name string) int32 {
		i, ok := p.index[name]
		if !ok {
			i = len(p.nets)
			p.index[name] = i
			p.nets = append(p.nets, name)
		}
		return int32(i)
	}
	for _, name := range c.Inputs {
		p.in = append(p.in, int(slot(name)))
	}
	p.gates = make([]pgate, len(ordered))
	for gi, g := range ordered {
		pg := pgate{typ: g.Type, out: slot(g.Out), in: make([]int32, len(g.In))}
		for i, in := range g.In {
			pg.in[i] = slot(in)
		}
		p.gates[gi] = pg
	}
	c.prog = p
	return p, nil
}

// NetIndex resolves a net name to its evaluation slot (-1, false when
// the circuit has no such net). The index is stable until AddGate.
func (c *Circuit) NetIndex(name string) (int, bool) {
	p, err := c.compiled()
	if err != nil {
		return -1, false
	}
	i, ok := p.index[name]
	if !ok {
		return -1, false
	}
	return i, ok
}

// Scratch is reusable single-goroutine evaluation state for EvalInto.
// Each slot holds one uint64 word: bit l is the net's value in lane l,
// so one evaluation runs 64 input patterns at once. Reset it, set the
// input slots, evaluate, read output slots — no allocation after
// construction.
type Scratch struct {
	val []uint64
	// def is one flag per slot, not per lane: every event that defines
	// a gate output (its evaluation, a stuck-at) hits all lanes alike.
	def []bool
}

// NewScratch returns a scratch sized for the circuit's current net set.
func (c *Circuit) NewScratch() (*Scratch, error) {
	p, err := c.compiled()
	if err != nil {
		return nil, err
	}
	return &Scratch{val: make([]uint64, len(p.nets)), def: make([]bool, len(p.nets))}, nil
}

// Reset clears every slot to undefined/false.
func (s *Scratch) Reset() {
	clear(s.val)
	clear(s.def)
}

// Set assigns slot idx one value per lane (use before EvalInto for
// input nets).
func (s *Scratch) Set(idx int, lanes uint64) {
	s.val[idx] = lanes
	s.def[idx] = true
}

// Val reads slot idx's lanes after EvalInto.
func (s *Scratch) Val(idx int) uint64 { return s.val[idx] }

func (p *pgate) eval(val []uint64) uint64 {
	switch p.typ {
	case Buf:
		return val[p.in[0]]
	case Not:
		return ^val[p.in[0]]
	case And, Nand:
		out := ^uint64(0)
		for _, in := range p.in {
			out &= val[in]
		}
		if p.typ == Nand {
			return ^out
		}
		return out
	case Or, Nor:
		out := uint64(0)
		for _, in := range p.in {
			out |= val[in]
		}
		if p.typ == Nor {
			return ^out
		}
		return out
	case Xor:
		out := uint64(0)
		for _, in := range p.in {
			out ^= val[in]
		}
		return out
	}
	return 0
}

// EvalInto evaluates the circuit over the scratch's slots under fault f,
// all 64 lanes at once: the allocation-free core of Eval. Input slots
// must be Set by the caller (an unset input reads false, as Eval's
// missing map key does); gate outputs land in the scratch for Val. The
// returned masks hold Result.IDDQ and Result.Unstable per lane. Fault
// nets absent from the circuit read false and absorb writes, matching
// the map semantics for every observable output.
//
// Every lane ends exactly where a one-pattern evaluation would stop: a
// lane that settles in a pass changes nothing and raises no conflict in
// the passes other lanes still need.
func (c *Circuit) EvalInto(s *Scratch, f Fault) (iddq, unstable uint64, err error) {
	p, err := c.compiled()
	if err != nil {
		return 0, 0, err
	}
	read := func(idx int) uint64 {
		if idx < 0 {
			return 0
		}
		return s.val[idx]
	}
	write := func(idx int, v uint64) {
		if idx >= 0 {
			s.val[idx] = v
			s.def[idx] = true
		}
	}
	fNet, fNet2 := -1, -1
	if i, ok := p.index[f.Net]; ok && f.Kind != FaultNone {
		fNet = i
	}
	if i, ok := p.index[f.Net2]; ok && f.Kind == Bridge {
		fNet2 = i
	}
	var stuck uint64
	if f.Val {
		stuck = ^uint64(0)
	}
	if f.IDDQOnly {
		iddq = ^uint64(0)
	}
	if f.Kind == StuckAt {
		write(fNet, stuck)
	}
	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		var changed uint64
		for gi := range p.gates {
			g := &p.gates[gi]
			nv := g.eval(s.val)
			if f.Kind == StuckAt && g.out == int32(fNet) {
				nv = stuck
			}
			if !s.def[g.out] {
				s.def[g.out] = true
				changed = ^uint64(0)
			} else {
				changed |= s.val[g.out] ^ nv
			}
			s.val[g.out] = nv
		}
		if f.Kind == Bridge {
			a, b := read(fNet), read(fNet2)
			if conflict := a ^ b; conflict != 0 {
				iddq |= conflict
				// Wired-AND resolution.
				write(fNet, a&b)
				write(fNet2, a&b)
				changed |= conflict
			}
		}
		if changed == 0 {
			return iddq, 0, nil
		}
		unstable = changed
	}
	return iddq, unstable, nil
}

// Result of one faulty evaluation.
type Result struct {
	// Values maps every net to its settled value.
	Values map[string]bool
	// IDDQ reports an elevated quiescent current (bridge driven to
	// opposite values, or an IDDQ-only defect).
	IDDQ bool
	// Unstable reports that the bridge created an unresolvable conflict
	// (values did not settle); outputs are then unreliable.
	Unstable bool
}

// Eval computes the circuit response to the given input assignment under
// fault f (pass Fault{} for fault-free). Bridges are wired-AND and
// evaluated to a fixpoint. Eval is the map-shaped convenience wrapper
// over EvalInto: it drives its one pattern into every lane and reads
// lane 0. Hot paths (the decoder's level sweep) hold a Scratch and call
// EvalInto directly, 64 patterns per call.
func (c *Circuit) Eval(in map[string]bool, f Fault) (*Result, error) {
	s, err := c.NewScratch()
	if err != nil {
		return nil, err
	}
	p, _ := c.compiled()
	for _, idx := range p.in {
		var lanes uint64
		if in[p.nets[idx]] {
			lanes = ^uint64(0)
		}
		s.Set(idx, lanes)
	}
	iddq, unstable, err := c.EvalInto(s, f)
	if err != nil {
		return nil, err
	}
	res := &Result{Values: map[string]bool{}, IDDQ: iddq&1 != 0, Unstable: unstable&1 != 0}
	for idx, def := range s.def {
		if def {
			res.Values[p.nets[idx]] = s.val[idx]&1 != 0
		}
	}
	// A stuck-at on a net the circuit does not contain still lands in
	// the value map (it just drives nothing), as it always has.
	if f.Kind == StuckAt {
		if _, ok := p.index[f.Net]; !ok {
			res.Values[f.Net] = f.Val
		}
	}
	return res, nil
}
