// Die-sharded good-space compilation. The paper's detection criterion
// needs the multi-dimensional good-signature space — the 3σ envelope of
// the fault-free circuit over process/supply/temperature, 80 Monte
// Carlo dies — before any fault can be classified, which historically
// made it a fully serial prelude to every run. The dies are independent
// by construction (each draws its variation from its own
// StreamSeed(seed, "goodspace", i) RNG stream), so this file spreads
// them over a bounded worker group and merges the per-die responses in
// index order — exactly the slice the serial loop would have produced,
// so signature.Compile sees bit-identical input for any worker count.
//
// Pool ownership: every die worker owns a private EnginePool, and one
// worker is the serial compile. The per-die variations never repeat, so
// routing them through the pipeline's shared pool would only flood it
// with engines no later analysis can check out; a private pool still
// gives the intra-die reuse that matters (the comparator's lo/hi
// transients share one engine), and it is dropped when the compile
// ends. The dies run CurrentsOnly, so they never reach the macros'
// fault-free memos.
package core

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/spice"
)

// goodSpaceWorkers resolves the die-level worker count (see the
// GoodSpaceWorkers field: 0 is GOMAXPROCS), clamped to the die count.
func (p *Pipeline) goodSpaceWorkers() int {
	w := p.GoodSpaceWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, p.Cfg.MCSamples)
}

// compileGoodSpace runs the good-space Monte Carlo and compiles the
// envelope. It does not touch the pipeline caches — GoodSpace owns the
// cache and the single-flight registry around this call.
func (p *Pipeline) compileGoodSpace(ctx context.Context, dft bool) (*signature.GoodSpace, error) {
	met := &obs.Metrics{}
	sp := p.Obs.Start(obs.StageGoodSpace, "", "", dft, met)
	samples, err := p.goodSamples(ctx, dft, met)
	sp.End()
	if err != nil {
		return nil, err
	}
	return signature.Compile(samples, p.Cfg.NSigma, p.Cfg.FloorA), nil
}

// goodDie simulates Monte Carlo die i on pool and returns its
// chip-level fault-free response. The die's span carries a private
// counter block so its deltas attribute only this die's work even when
// dies run concurrently; the block is merged into the stage-level met
// before returning.
func (p *Pipeline) goodDie(ctx context.Context, i int, dft bool, pool *macros.EnginePool, met *obs.Metrics) (*signature.Response, error) {
	dieMet := met
	if p.Obs != nil {
		dieMet = &obs.Metrics{}
		defer met.Merge(dieMet)
	}
	sp := p.Obs.Start(obs.StageGoodSpaceDie, "", "die"+strconv.Itoa(i), dft, dieMet)
	defer sp.End()
	rng := rand.New(rand.NewSource(StreamSeed(p.Cfg.Seed, "goodspace", strconv.Itoa(i))))
	v := macros.Draw(rng)
	parts, err := p.partsFor(ctx, v, dft, dieMet, pool)
	if err != nil {
		return nil, err
	}
	dieMet.Add(obs.CtrGoodspaceDies, 1)
	return p.Chipify(parts, "", nil), nil
}

// goodSamples produces the per-die responses in index order. Workers
// claim die indexes from a shared counter — which worker runs which die
// is schedule-dependent, but each die depends only on its index, so the
// index-ordered slice is invariant. Cancelling ctx aborts the group in
// bounded time: the cancellation reaches into the solvers, and every
// worker re-checks the context between dies.
func (p *Pipeline) goodSamples(ctx context.Context, dft bool, met *obs.Metrics) ([]*signature.Response, error) {
	n := p.Cfg.MCSamples
	samples := make([]*signature.Response, n)
	workers := p.goodSpaceWorkers()
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := macros.NewEnginePool()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || gctx.Err() != nil {
					return
				}
				r, err := p.goodDie(gctx, i, dft, pool, met)
				if err != nil {
					errs[w] = err
					cancel() // abort the group on first failure
					return
				}
				samples[i] = r
			}
		}(w)
	}
	wg.Wait()
	// Prefer a real failure over the secondary cancellations it caused.
	var cancelErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case spice.IsCancelled(err):
			if cancelErr == nil {
				cancelErr = err
			}
		default:
			return nil, err
		}
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}
