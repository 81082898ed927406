package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentMissesShareOneCall: every caller racing on a cold key
// gets the owner's value, fn runs once, and all but the owner report a
// hit.
func TestConcurrentMissesShareOneCall(t *testing.T) {
	var c Cache[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}
	const n = 8
	var wg sync.WaitGroup
	var hits atomic.Int32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Get(context.Background(), "k", fn)
			if err != nil || v != 42 {
				errs <- errors.New("wrong result")
				return
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// Wait until the owner is inside fn, then let it finish; callers
	// arriving later are completed-entry hits, which count the same.
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := hits.Load(); got != n-1 {
		t.Fatalf("%d hits, want %d", got, n-1)
	}
}

// TestErrorsAreNotCached: a failed computation is forgotten, and the
// next call computes again.
func TestErrorsAreNotCached(t *testing.T) {
	var c Cache[int, string]
	boom := errors.New("boom")
	if _, _, err := c.Get(context.Background(), 1, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Get(context.Background(), 1, func() (string, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("after a failure: v=%q hit=%v err=%v, want a fresh computation", v, hit, err)
	}
	v, hit, err = c.Get(context.Background(), 1, func() (string, error) { return "stale", nil })
	if err != nil || !hit || v != "ok" {
		t.Fatalf("success not cached: v=%q hit=%v err=%v", v, hit, err)
	}
}

// TestWaiterRetriesAfterOwnerCancelled: when the owner's context is
// cancelled mid-computation, a waiter with a live context computes the
// value itself instead of inheriting the cancellation.
func TestWaiterRetriesAfterOwnerCancelled(t *testing.T) {
	var c Cache[int, int]
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	entered := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ownerCtx, 1, func() (int, error) {
			close(entered)
			<-ownerCtx.Done()
			return 0, ownerCtx.Err()
		})
		ownerDone <- err
	}()
	<-entered

	waiterDone := make(chan struct{})
	wctx := newJoinCtx()
	var v int
	var hit bool
	var err error
	go func() {
		defer close(waiterDone)
		v, hit, err = c.Get(wctx, 1, func() (int, error) { return 7, nil })
	}()
	<-wctx.joined
	cancelOwner()
	if oerr := <-ownerDone; !errors.Is(oerr, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", oerr)
	}
	<-waiterDone
	if err != nil || v != 7 || hit {
		t.Fatalf("waiter: v=%d hit=%v err=%v, want its own computation of 7", v, hit, err)
	}
}

// TestWaiterOwnContextCancelled: a waiter whose own context ends before
// the value is ready returns its ctx.Err() without waiting further; the
// owner's computation is unaffected.
func TestWaiterOwnContextCancelled(t *testing.T) {
	var c Cache[int, int]
	entered := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan int, 1)
	go func() {
		v, _, _ := c.Get(context.Background(), 1, func() (int, error) {
			close(entered)
			<-release
			return 3, nil
		})
		ownerDone <- v
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(ctx, 1, func() (int, error) { return 0, errors.New("must not run") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-ownerDone; v != 3 {
		t.Fatalf("owner got %d, want 3", v)
	}
	// A completed entry is served even to a cancelled context.
	if v, hit, err := c.Get(ctx, 1, nil); err != nil || !hit || v != 3 {
		t.Fatalf("completed entry: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestNilCacheComputesEveryTime: a nil *Cache is memoisation off.
func TestNilCacheComputesEveryTime(t *testing.T) {
	var c *Cache[int, int]
	calls := 0
	fn := func() (int, error) { calls++; return calls, nil }
	for want := 1; want <= 3; want++ {
		v, hit, err := c.Get(context.Background(), 0, fn)
		if err != nil || hit || v != want {
			t.Fatalf("call %d: v=%d hit=%v err=%v", want, v, hit, err)
		}
	}
}

// TestPanicSettlesFlight: a panicking owner re-raises its panic, and the
// key stays computable — the next caller does not block on the dead
// flight.
func TestPanicSettlesFlight(t *testing.T) {
	var c Cache[int, int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic was swallowed")
			}
		}()
		_, _, _ = c.Get(context.Background(), 1, func() (int, error) { panic("boom") })
	}()
	v, hit, err := c.Get(context.Background(), 1, func() (int, error) { return 5, nil })
	if err != nil || hit || v != 5 {
		t.Fatalf("after a panic: v=%d hit=%v err=%v", v, hit, err)
	}
}

// joinCtx is a live context that reports when a waiter first selects
// on its Done channel — the moment the waiter has joined a flight.
type joinCtx struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func newJoinCtx() *joinCtx {
	return &joinCtx{Context: context.Background(), joined: make(chan struct{})}
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}
