package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// engine is the shared state of one campaign execution. Scheduling uses
// per-worker deques with stealing: a worker pushes the units it fans out
// onto its own deque and pops them LIFO (depth-first, keeping the unit
// graph's working set hot); an idle worker steals FIFO from the busiest
// victim (breadth-first, taking the oldest — typically largest — work).
// All deques hang off one mutex: units are milliseconds-to-seconds of
// analog simulation each, so lock traffic is noise.
type engine struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	deques   [][]Unit
	inflight int  // units popped but not yet completed
	stopped  bool // context cancelled: drain without starting new units

	results  map[string]any
	raw      map[string]json.RawMessage // marshalled results for the checkpoint
	restored map[string]json.RawMessage // loaded checkpoint payloads
	failed   map[string]string
	seen     map[string]bool // keys ever enqueued (guards double fanout)

	// ckptMu serializes checkpoint writes (they share one .tmp file)
	// without holding mu across disk I/O.
	ckptMu    sync.Mutex
	sinceCkpt int
	ckptErr   error

	stats Stats
	busy  []time.Duration
}

// enqueueLocked pushes u onto worker w's deque. Caller may hold e.mu;
// during setup (single goroutine) the lock is not required.
func (e *engine) enqueueLocked(w int, u Unit) {
	if e.seen[u.Key] {
		return
	}
	e.seen[u.Key] = true
	e.deques[w] = append(e.deques[w], u)
	e.stats.UnitsTotal++
}

// next blocks until a unit is available for worker id, stealing when the
// local deque is empty. ok=false means the campaign is over: no queued
// units, none in flight (so no fanout can appear), or cancellation.
func (e *engine) next(id int) (Unit, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stopped {
			return Unit{}, false
		}
		// Local pop, newest first.
		if q := e.deques[id]; len(q) > 0 {
			u := q[len(q)-1]
			e.deques[id] = q[:len(q)-1]
			e.inflight++
			return u, true
		}
		// Steal the oldest unit from the fullest victim.
		victim, best := -1, 0
		for w := range e.deques {
			if w != id && len(e.deques[w]) > best {
				victim, best = w, len(e.deques[w])
			}
		}
		if victim >= 0 {
			u := e.deques[victim][0]
			e.deques[victim] = e.deques[victim][1:]
			e.stats.Steals++
			e.inflight++
			return u, true
		}
		if e.inflight == 0 {
			e.cond.Broadcast() // wake the other idle workers to exit
			return Unit{}, false
		}
		e.cond.Wait()
	}
}

// worker is one pool goroutine: pop/steal, execute with recovery and
// retry, record, fan out, checkpoint.
func (e *engine) worker(ctx context.Context, id int) {
	for {
		u, ok := e.next(id)
		if !ok {
			return
		}
		start := time.Now()
		res, restored, err := e.perform(ctx, u)
		elapsed := time.Since(start)

		var fanned []Unit
		if err == nil && u.Fanout != nil {
			fanned, err = runFanout(u, res)
		}

		e.mu.Lock()
		e.busy[id] += elapsed
		g := e.stats.Groups[u.Group]
		if g == nil {
			g = &GroupStats{}
			e.stats.Groups[u.Group] = g
		}
		if err != nil {
			if u.retried < e.opts.maxRetries() && !e.stopped {
				// Bounded retry: requeue locally with the attempt count
				// bumped; a transient failure gets another worker slot.
				e.stats.Retries++
				r := u
				r.retried++
				e.deques[id] = append(e.deques[id], r)
				e.inflight--
				e.mu.Unlock()
				e.cond.Broadcast()
				continue
			}
			e.failed[u.Key] = err.Error()
			e.stats.Failed++
			g.Failed++
		} else {
			e.results[u.Key] = res
			e.stats.Completed++
			g.Units++
			g.WallMS += float64(elapsed) / float64(time.Millisecond)
			if restored {
				e.stats.Restored++
				g.Restored++
			} else if e.opts.Store != nil {
				if raw, mErr := json.Marshal(res); mErr == nil {
					e.raw[u.Key] = raw
				} else if e.ckptErr == nil {
					e.ckptErr = fmt.Errorf("campaign: marshal %s: %w", u.Key, mErr)
				}
			}
			for _, f := range fanned {
				e.enqueueLocked(id, f)
			}
		}
		e.inflight--
		prog := Progress{
			Total:     e.stats.UnitsTotal,
			Completed: e.stats.Completed,
			Restored:  e.stats.Restored,
			Failed:    e.stats.Failed,
		}
		flush := false
		if e.opts.Store != nil && !restored && err == nil {
			e.sinceCkpt++
			if e.sinceCkpt >= e.opts.checkpointEvery() {
				e.sinceCkpt = 0
				flush = true
			}
		}
		e.mu.Unlock()
		e.cond.Broadcast()

		if e.opts.OnUnitDone != nil && err == nil {
			e.opts.OnUnitDone(u.Key, restored)
		}
		if e.opts.OnProgress != nil {
			e.opts.OnProgress(prog)
		}
		if flush {
			if sErr := e.saveCheckpoint(); sErr != nil {
				e.mu.Lock()
				if e.ckptErr == nil {
					e.ckptErr = sErr
				}
				e.mu.Unlock()
			}
		}
	}
}

// perform resolves one unit: from the checkpoint when possible, then by
// remote dispatch when an Executor accepts it, live locally otherwise,
// with panics converted to errors. Remote dispatch happens before the
// admission gate — a remotely executing unit consumes no local slot, so
// connected workers add capacity on top of the local budget. Local
// executions pass through the gate (when one is configured) so
// concurrent campaigns share the global slot budget; restored units
// bypass both — a checkpoint hit costs microseconds, not a worker slot.
func (e *engine) perform(ctx context.Context, u Unit) (res any, restored bool, err error) {
	if raw, ok := e.restoredPayload(u.Key); ok && e.opts.Decode != nil {
		if res, dErr := e.opts.Decode(u.Key, raw); dErr == nil {
			return res, true, nil
		}
		// Undecodable payload (format drift): fall through and re-run.
	}
	if x := e.opts.Executor; x != nil && e.opts.Decode != nil {
		raw, ok, xErr := x.Execute(ctx, u)
		if xErr != nil {
			return nil, false, xErr
		}
		if ok {
			res, dErr := e.opts.Decode(u.Key, raw)
			if dErr != nil {
				// An undecodable remote result is a unit error, not a
				// silent local re-run: it means worker/daemon version
				// skew, which retrying locally would mask.
				return nil, false, fmt.Errorf("campaign: decode remote result of %s: %w", u.Key, dErr)
			}
			return res, false, nil
		}
		// Declined: no remote capacity (or the lease expired under a
		// dead worker) — the unit is re-queued locally, right here.
	}
	if e.opts.Gate != nil {
		release, gErr := e.opts.Gate.Acquire(ctx)
		if gErr != nil {
			return nil, false, gErr
		}
		defer release()
	}
	res, err = runShielded(ctx, u)
	return res, false, err
}

func (e *engine) restoredPayload(key string) (json.RawMessage, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	raw, ok := e.restored[key]
	return raw, ok
}

// runShielded invokes u.Run with panic recovery: one bad fault class
// must degrade the campaign, not kill it.
func runShielded(ctx context.Context, u Unit) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: unit %s panicked: %v", u.Key, r)
		}
	}()
	return u.Run(ctx)
}

// runFanout invokes u.Fanout with panic recovery.
func runFanout(u Unit, res any) (units []Unit, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: fanout of %s panicked: %v", u.Key, r)
		}
	}()
	return u.Fanout(res), nil
}
