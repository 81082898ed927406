package faults

import (
	"repro/internal/netlist"
	"repro/internal/process"
)

// InjectResult describes what Inject would do to a circuit for one
// fault, computed without touching the circuit. It is the classifier
// the low-rank fault-update path needs: a fault whose model only
// appends elements between existing nodes can be expressed as a
// fixed-size matrix delta against the nominal factorization, while one
// that creates nodes or retargets terminals changes the system
// dimension and must go through a full rebuild.
type InjectResult struct {
	// Added lists the elements Inject would append, in injection order.
	// Only meaningful when TopologyChanged is false: it is then built
	// against the inspected circuit's existing node IDs.
	Added []netlist.Element
	// TopologyChanged reports that the model needs new nodes or terminal
	// retargeting: opens and new devices (split nodes), or a bridge
	// naming a net the circuit does not have (Inject would create it as
	// a new floating node).
	TopologyChanged bool
}

// Plan runs Inject's fault model without mutating ckt: it reports the
// elements Inject would add and whether the injection changes the
// circuit topology. Both run the same model (see editor), so a malformed
// fault errors identically out of either, and a property test pins the
// pairing against copies of the same circuit.
func Plan(ckt *netlist.Circuit, f Fault, proc *process.Process, opt InjectOptions) (InjectResult, error) {
	var res InjectResult
	if err := model(f, proc, opt, &editor{ckt: ckt, rec: &res}); err != nil {
		return InjectResult{}, err
	}
	return res, nil
}
