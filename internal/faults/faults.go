// Package faults defines the circuit-level fault records produced by the
// defect simulator, the equivalence collapsing that turns raw faults into
// fault classes with magnitudes, and the circuit-level fault models that
// inject a fault into a netlist for simulation — the middle of the paper's
// defect-oriented test path (Fig. 1): faults → fault collapsing → fault
// classes → circuit-level fault models.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netlist"
	"repro/internal/process"
)

// Kind enumerates fault mechanisms, matching the rows of the paper's
// Table 1.
type Kind int

const (
	// Short is an extra-material bridge between two or more nets.
	Short Kind = iota
	// ExtraContactKind is a parasitic vertical connection (2 Ω).
	ExtraContactKind
	// GOSPinhole is a gate-oxide pinhole on one device (2 kΩ, modelled
	// three ways: to source, to drain, to channel; the worst case is
	// selected during fault simulation).
	GOSPinhole
	// JunctionPinholeKind is a leaky junction from a diffusion net to its
	// bulk (2 kΩ).
	JunctionPinholeKind
	// ThickOxPinhole is a vertical short through field oxide between
	// crossing conductors (2 kΩ).
	ThickOxPinhole
	// Open severs a net: the far-side terminals are reconnected to a new
	// split node.
	Open
	// NewDevice is a parasitic minimum-size transistor created by extra
	// poly crossing a diffusion region.
	NewDevice
	// ShortedDevice bridges a device's drain and source (missing gate).
	ShortedDevice
	numKinds
)

// NumKinds is the number of fault kinds.
const NumKinds = int(numKinds)

// String implements fmt.Stringer, using the paper's Table 1 names.
func (k Kind) String() string {
	switch k {
	case Short:
		return "Short"
	case ExtraContactKind:
		return "Extra contact"
	case GOSPinhole:
		return "Gate oxide pinhole"
	case JunctionPinholeKind:
		return "Junction pinhole"
	case ThickOxPinhole:
		return "Thick oxide pinhole"
	case Open:
		return "Open"
	case NewDevice:
		return "New device"
	case ShortedDevice:
		return "Shorted device"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// GOSVariant selects how a gate-oxide pinhole is modelled.
type GOSVariant int

const (
	// GOSToSource connects gate to source through the pinhole.
	GOSToSource GOSVariant = iota
	// GOSToDrain connects gate to drain.
	GOSToDrain
	// GOSToChannel connects gate to the channel midpoint (modelled as a
	// split pinhole resistance to both source and drain).
	GOSToChannel
	// NumGOSVariants counts the variants.
	NumGOSVariants
)

// Terminal identifies an element terminal for the open-fault model: every
// terminal of element Device currently connected to Net is moved to the
// split node.
type Terminal struct {
	Device string
	Net    string
}

// Fault is one circuit-level fault extracted from one defect.
type Fault struct {
	Kind Kind
	// Nets are the nets involved (sorted), for Short / pinhole kinds.
	Nets []string
	// Device is the affected device for GOS / ShortedDevice kinds and
	// the host device for NewDevice.
	Device string
	// Res is the fault-model resistance in ohms (0 = use process value).
	Res float64
	// FarTerminals lists the terminals split off by an Open or isolated
	// behind a NewDevice.
	FarTerminals []Terminal
	// GateNet is the net driving a NewDevice's parasitic gate
	// ("" = floating).
	GateNet string
	// Local reports whether every involved net is internal to the macro
	// (the paper's 27.8 % of comparator faults).
	Local bool
}

// Key returns the canonical equivalence key: faults with equal keys are
// circuit-level equivalent and collapse into one class.
func (f Fault) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", int(f.Kind))
	nets := append([]string(nil), f.Nets...)
	sort.Strings(nets)
	b.WriteString(strings.Join(nets, ","))
	fmt.Fprintf(&b, "|%s|%s|", f.Device, f.GateNet)
	terms := make([]string, len(f.FarTerminals))
	for i, t := range f.FarTerminals {
		terms[i] = t.Device + "/" + t.Net
	}
	sort.Strings(terms)
	b.WriteString(strings.Join(terms, ","))
	return b.String()
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f.Kind {
	case Open:
		return fmt.Sprintf("%s(%s: %d terms)", f.Kind, strings.Join(f.Nets, ","), len(f.FarTerminals))
	case GOSPinhole, ShortedDevice:
		return fmt.Sprintf("%s(%s)", f.Kind, f.Device)
	case NewDevice:
		return fmt.Sprintf("%s(%s gate=%s)", f.Kind, strings.Join(f.Nets, ","), f.GateNet)
	default:
		return fmt.Sprintf("%s(%s)", f.Kind, strings.Join(f.Nets, ","))
	}
}

// Class is an equivalence class of faults with its magnitude (the number
// of raw faults that collapsed into it, which determines the likelihood of
// the fault, per the paper).
type Class struct {
	Fault Fault
	Count int
}

// Collapse groups faults by Key. Classes are ordered by descending count,
// then by key for determinism.
func Collapse(fs []Fault) []Class {
	byKey := map[string]*Class{}
	var order []string
	for _, f := range fs {
		k := f.Key()
		if c, ok := byKey[k]; ok {
			c.Count++
		} else {
			byKey[k] = &Class{Fault: f, Count: 1}
			order = append(order, k)
		}
	}
	out := make([]Class, 0, len(byKey))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Fault.Key() < out[j].Fault.Key()
	})
	return out
}

// CountByKind tallies faults (not classes) per kind.
func CountByKind(fs []Fault) map[Kind]int {
	out := map[Kind]int{}
	for _, f := range fs {
		out[f.Kind]++
	}
	return out
}

// ClassesByKind tallies classes per kind.
func ClassesByKind(cs []Class) map[Kind]int {
	out := map[Kind]int{}
	for _, c := range cs {
		out[c.Fault.Kind]++
	}
	return out
}

// NonCatEligible reports whether a catastrophic fault of this kind evolves
// a non-catastrophic (near-miss) variant. Per the paper, non-catastrophic
// faults are derived from shorts and extra contacts; the other kinds are
// already high-ohmic.
func (f Fault) NonCatEligible() bool {
	return f.Kind == Short || f.Kind == ExtraContactKind
}

// Resolver maps layout net names to netlist node names (e.g. "vss" → "0").
type Resolver func(string) string

// DefaultResolver maps vss/gnd to ground and leaves other names unchanged.
func DefaultResolver(net string) string {
	switch net {
	case "vss", "gnd":
		return "0"
	}
	return net
}

// InjectOptions configure fault injection.
type InjectOptions struct {
	// NonCat selects the near-miss model (500 Ω ∥ 1 fF) for eligible
	// kinds instead of the catastrophic resistance.
	NonCat bool
	// GOS selects the gate-oxide pinhole variant.
	GOS GOSVariant
	// Resolve maps layout nets to netlist nodes (DefaultResolver if nil).
	Resolve Resolver
}

// Inject applies the circuit-level fault model for f to ckt in place.
// The models follow the paper: resistive bridges with material-determined
// values for shorts; 2 Ω extra contacts; 2 kΩ pinholes; node splitting for
// opens; a minimum-size parasitic transistor for new devices; a low-ohmic
// drain-source bridge for shorted devices; and 500 Ω ∥ 1 fF for
// non-catastrophic variants.
func Inject(ckt *netlist.Circuit, f Fault, proc *process.Process, opt InjectOptions) error {
	return model(f, proc, opt, &editor{ckt: ckt})
}

// editor is how a fault model changes a circuit. It has two
// implementations: apply (rec nil, used by Inject) makes each change;
// record (rec set, used by Plan) leaves the circuit as it is and notes
// the change in rec instead — nodes Inject would create get IDs past
// the circuit's own, and retargets are kept in moved, so later steps of
// the model see the circuit as Inject's earlier steps would have left
// it. Running one model through either keeps Inject and Plan in step.
// It is one concrete type rather than an interface because a value
// behind an interface escapes to the heap, and Plan runs once per
// ladder fault on the allocation-counted rank-1 path.
type editor struct {
	ckt     *netlist.Circuit
	rec     *InjectResult
	created map[string]netlist.NodeID
	moved   map[netlist.Element]map[int]netlist.NodeID
}

// node returns the named node, creating it when the circuit lacks it.
func (e *editor) node(name string) netlist.NodeID {
	if e.rec == nil {
		return e.ckt.Node(name)
	}
	if id, ok := e.lookup(name); ok {
		return id
	}
	e.rec.TopologyChanged = true
	if e.created == nil {
		e.created = map[string]netlist.NodeID{}
	}
	id := netlist.NodeID(e.ckt.NumNodes() + len(e.created))
	e.created[name] = id
	return id
}

// lookup returns the named node without creating it.
func (e *editor) lookup(name string) (netlist.NodeID, bool) {
	if id, ok := e.ckt.NodeByName(name); ok {
		return id, true
	}
	id, ok := e.created[name]
	return id, ok
}

// add appends an element.
func (e *editor) add(el netlist.Element) {
	if e.rec == nil {
		e.ckt.Add(el)
		return
	}
	e.rec.Added = append(e.rec.Added, el)
}

// terminals returns the nodes el's terminals are on now.
func (e *editor) terminals(el netlist.Element) []netlist.NodeID {
	nodes := el.Nodes()
	if m := e.moved[el]; m != nil {
		nodes = append([]netlist.NodeID(nil), nodes...)
		for i, n := range m {
			nodes[i] = n
		}
	}
	return nodes
}

// retarget moves terminal i of el to node to.
func (e *editor) retarget(el netlist.Element, i int, to netlist.NodeID) {
	if e.rec == nil {
		el.Retarget(i, to)
		return
	}
	e.rec.TopologyChanged = true
	if e.moved == nil {
		e.moved = map[netlist.Element]map[int]netlist.NodeID{}
	}
	if e.moved[el] == nil {
		e.moved[el] = map[int]netlist.NodeID{}
	}
	e.moved[el][i] = to
}

// model runs the fault model for f against ed's circuit. Devices are
// looked up in the circuit directly; every change goes through ed.
func model(f Fault, proc *process.Process, opt InjectOptions, ed *editor) error {
	resolve := opt.Resolve
	if resolve == nil {
		resolve = DefaultResolver
	}
	node := func(net string) netlist.NodeID { return ed.node(resolve(net)) }

	bridge := func(tag string, a, b netlist.NodeID, r float64) {
		if a == b {
			return
		}
		if opt.NonCat && (f.Kind == Short || f.Kind == ExtraContactKind) {
			ed.add(&netlist.Resistor{Label: "flt." + tag + ".r", A: a, B: b, R: proc.NonCatRes})
			ed.add(&netlist.Capacitor{Label: "flt." + tag + ".c", A: a, B: b, C: proc.NonCatCap})
			return
		}
		ed.add(&netlist.Resistor{Label: "flt." + tag, A: a, B: b, R: r})
	}

	switch f.Kind {
	case Short, ThickOxPinhole, ExtraContactKind, JunctionPinholeKind:
		if len(f.Nets) < 2 {
			return fmt.Errorf("faults: %v needs ≥2 nets", f.Kind)
		}
		r := f.Res
		if r <= 0 {
			switch f.Kind {
			case ExtraContactKind:
				r = proc.ExtraContactRes
			case ThickOxPinhole, JunctionPinholeKind:
				r = proc.PinholeRes
			default:
				r = 0.2 // metal default; defectsim normally sets Res
			}
		}
		hub := node(f.Nets[0])
		for i, n := range f.Nets[1:] {
			bridge(fmt.Sprintf("%d", i), hub, node(n), r)
		}
		return nil

	case GOSPinhole:
		mos, ok := ed.ckt.Element(f.Device).(*netlist.MOSFET)
		if !ok {
			return fmt.Errorf("faults: GOS pinhole on unknown device %q", f.Device)
		}
		r := f.Res
		if r <= 0 {
			r = proc.PinholeRes
		}
		switch opt.GOS {
		case GOSToSource:
			ed.add(&netlist.Resistor{Label: "flt.gos", A: mos.G, B: mos.S, R: r})
		case GOSToDrain:
			ed.add(&netlist.Resistor{Label: "flt.gos", A: mos.G, B: mos.D, R: r})
		case GOSToChannel:
			// Channel midpoint: pinhole feeds both junctions.
			ed.add(&netlist.Resistor{Label: "flt.gos.s", A: mos.G, B: mos.S, R: 2 * r})
			ed.add(&netlist.Resistor{Label: "flt.gos.d", A: mos.G, B: mos.D, R: 2 * r})
		default:
			return fmt.Errorf("faults: bad GOS variant %d", opt.GOS)
		}
		return nil

	case ShortedDevice:
		mos, ok := ed.ckt.Element(f.Device).(*netlist.MOSFET)
		if !ok {
			return fmt.Errorf("faults: shorted device %q not found", f.Device)
		}
		r := f.Res
		if r <= 0 {
			r = proc.ShortedDeviceRes
		}
		ed.add(&netlist.Resistor{Label: "flt.sdev", A: mos.D, B: mos.S, R: r})
		return nil

	case Open:
		if len(f.Nets) != 1 {
			return fmt.Errorf("faults: open needs exactly 1 net")
		}
		split := ed.node(resolve(f.Nets[0]) + "#split")
		return retargetFar(ed, f.FarTerminals, resolve, split)

	case NewDevice:
		if len(f.Nets) != 1 {
			return fmt.Errorf("faults: new device needs exactly 1 net")
		}
		orig := node(f.Nets[0])
		split := ed.node(resolve(f.Nets[0]) + "#nd")
		if err := retargetFar(ed, f.FarTerminals, resolve, split); err != nil {
			return err
		}
		var gate netlist.NodeID
		if f.GateNet == "" {
			// Floating parasitic gate: weakly tied to ground.
			gate = ed.node(resolve(f.Nets[0]) + "#ndgate")
			ed.add(&netlist.Resistor{Label: "flt.ndg", A: gate, B: netlist.Ground, R: 1e9})
		} else {
			gate = node(f.GateNet)
		}
		ed.add(&netlist.MOSFET{
			Label: "flt.nd", D: orig, G: gate, S: split, B: netlist.Ground,
			Model: netlist.NMOS1(), W: 2e-6, L: 2e-6,
		})
		return nil
	}
	return fmt.Errorf("faults: unknown kind %v", f.Kind)
}

// retargetFar moves every terminal listed in far from its present net to
// the split node.
func retargetFar(ed *editor, far []Terminal, resolve Resolver, split netlist.NodeID) error {
	if len(far) == 0 {
		return fmt.Errorf("faults: open with no far terminals")
	}
	for _, t := range far {
		el := ed.ckt.Element(t.Device)
		if el == nil {
			return fmt.Errorf("faults: open far terminal on unknown element %q", t.Device)
		}
		want, ok := ed.lookup(resolve(t.Net))
		if !ok {
			return fmt.Errorf("faults: open net %q not in netlist", t.Net)
		}
		hit := false
		for i, n := range ed.terminals(el) {
			if n == want {
				ed.retarget(el, i, split)
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("faults: element %q has no terminal on %q", t.Device, t.Net)
		}
	}
	return nil
}
