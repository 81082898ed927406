package macros

import (
	"sync"

	"repro/internal/netlist"
	"repro/internal/spice"
)

// engineKey identifies one compiled fault-free simulation *topology*:
// the macro, its reference tap and the structural flags (DfT redesign,
// presence of the leakage path) together determine the node set,
// element set and terminal wiring of the testbench — everything a
// compiled engine's stamp programs and sparse symbolic analyses depend
// on. Values that move without moving structure — the die Variation's
// model cards, resistances and supply levels, the input-source
// waveforms — are deliberately NOT part of the key: checkouts rebind
// them in place (Engine.Revalue), which is bit-identical to building
// afresh. Faulty engines are never pooled: a fault lives for one
// analysis, which keeps its engine for all of its simulations.
type engineKey struct {
	macro string
	vref  float64
	dft   bool
	// leak reports the comparator's flipflop leakage path is present
	// (fault-free structural variant gated on !DfT && FFLeakA > 1e-9).
	leak bool
}

// EnginePool caches compiled fault-free spice engines across analyses
// with checkout semantics: acquire removes an engine from the pool,
// giving the caller exclusive use (engines are single-goroutine
// objects), and release returns it once the caller has extracted
// everything from the analysis results (a Tran aliases engine-owned
// storage). Concurrent campaign workers that miss simply build a fresh
// engine and check it in afterwards, so the pool converges to one warm
// engine per worker per key. Reuse is bit-identical to fresh
// construction: every analysis restarts Newton from the zero vector,
// and the only state a checkout mutates is the element values its
// rebind rewrites — to exactly the values a fresh build of the same
// checkout would stamp (the binding is recorded by running the same
// builder; see netlist.Binding).
//
// A nil *EnginePool disables pooling (every acquire misses and every
// release discards), so callers thread it unconditionally.
type EnginePool struct {
	mu      sync.Mutex
	engines map[engineKey][]*spice.Engine
	// binds caches the recorded base binding per key, for the variation
	// it was last recorded at. A campaign's class analyses all run at
	// the nominal Variation, so the last-value cache turns their
	// per-checkout recording build into a map lookup.
	binds map[engineKey]*bindEntry
}

// bindEntry is one cached base binding: valid only for checkouts at
// exactly the variation it was recorded under. The binding is shared
// read-only (Revalue never mutates it).
type bindEntry struct {
	v    Variation
	bind *netlist.Binding
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	return &EnginePool{
		engines: map[engineKey][]*spice.Engine{},
		binds:   map[engineKey]*bindEntry{},
	}
}

// baseBinding returns the recorded binding for key k at variation v,
// recording one via rec on a miss (first sight of the key, or the
// cached entry belongs to another variation).
func (p *EnginePool) baseBinding(k engineKey, v Variation, rec func(*netlist.Builder)) *netlist.Binding {
	p.mu.Lock()
	e := p.binds[k]
	p.mu.Unlock()
	if e != nil && e.v == v {
		return e.bind
	}
	bind := &netlist.Binding{}
	rec(netlist.NewRecorder(bind))
	p.storeBinding(k, v, bind)
	return bind
}

// storeBinding caches bind as key k's base binding at variation v. The
// caller must not mutate bind afterwards.
func (p *EnginePool) storeBinding(k engineKey, v Variation, bind *netlist.Binding) {
	p.mu.Lock()
	p.binds[k] = &bindEntry{v: v, bind: bind}
	p.mu.Unlock()
}

// acquire checks an engine out of the pool (nil on a miss).
func (p *EnginePool) acquire(k engineKey) *spice.Engine {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.engines[k]
	if len(s) == 0 {
		return nil
	}
	e := s[len(s)-1]
	p.engines[k] = s[:len(s)-1]
	return e
}

// release checks an engine back in under its key.
func (p *EnginePool) release(k engineKey, e *spice.Engine) {
	if p == nil || e == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.engines[k] = append(p.engines[k], e)
}

// size reports the number of pooled (checked-in) engines.
func (p *EnginePool) size() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.engines {
		n += len(s)
	}
	return n
}
