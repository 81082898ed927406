// Package memo is the pipeline's one memoisation mechanism: a keyed,
// single-flight cache of deterministic computations. The good-space
// compile, the class discovery, the nominal macro responses and the
// macros' own fault-free memos all go through it, so they share one set
// of concurrency rules instead of one hand-rolled variant each.
package memo

import (
	"context"
	"errors"
	"sync"
)

// Cache memoises fn results per key. Concurrent misses on one key share
// a single fn call: the first caller (the owner) computes, the others
// wait for it. Only successful results are kept; a failed computation is
// forgotten, so the next caller computes afresh. The zero Cache is ready
// to use, and a nil *Cache computes on every call (memoisation off).
//
// Values are shared: every caller receives the same V, so callers must
// treat it as read-only.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// flight is one computation, in progress until done is closed.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
	// cancelled reports that the owner's context was done when fn
	// returned its error: the failure says nothing about the key, so a
	// live waiter computes again instead of inheriting it.
	cancelled bool
}

// Get returns the value for k, computing it with fn on a miss. hit
// reports that the value came from another call: a completed entry or a
// computation this call joined. A waiter returns ctx.Err() when its own
// ctx is done before the value is ready; when the owner fails because
// its context was cancelled, a waiter whose ctx is still live retries
// (and may become the new owner). Any other owner error is returned to
// its waiters as is. fn runs with no lock held.
func (c *Cache[K, V]) Get(ctx context.Context, k K, fn func() (V, error)) (v V, hit bool, err error) {
	if c == nil {
		v, err = fn()
		return v, false, err
	}
	for {
		c.mu.Lock()
		f, ok := c.m[k]
		if !ok {
			f = &flight[V]{done: make(chan struct{})}
			if c.m == nil {
				c.m = map[K]*flight[V]{}
			}
			c.m[k] = f
			c.mu.Unlock()
			return c.own(ctx, k, f, fn)
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		default:
			select {
			case <-f.done:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
		}
		if f.err == nil {
			return f.v, true, nil
		}
		if f.cancelled && ctx.Err() == nil {
			continue
		}
		return v, false, f.err
	}
}

// errPanicked is what waiters see when the owner's fn panicked (the
// panic itself continues up the owner's stack).
var errPanicked = errors.New("memo: computation panicked")

// own runs fn as the owner of flight f and publishes its result. The
// flight is settled even when fn panics, so no waiter blocks forever
// behind a computation that will never finish.
func (c *Cache[K, V]) own(ctx context.Context, k K, f *flight[V], fn func() (V, error)) (V, bool, error) {
	returned := false
	defer func() {
		if !returned {
			f.err = errPanicked
		}
		if f.err != nil {
			f.cancelled = ctx.Err() != nil
			// Forget the failure before waking the waiters, so a
			// retrying waiter finds no entry and computes.
			c.mu.Lock()
			delete(c.m, k)
			c.mu.Unlock()
		}
		close(f.done)
	}()
	f.v, f.err = fn()
	returned = true
	return f.v, false, f.err
}
