// External tests for the die-sharded good-space compile: determinism
// across worker counts, bounded-time cancellation, and the single-flight
// contract for concurrent callers.
package core_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/spice"
)

// goodSpaceTestCfg trims the Monte Carlo to 6 dies, so the 9-worker
// case also covers the clamp: a worker count above the die count runs
// one worker per die.
func goodSpaceTestCfg() core.Config {
	cfg := core.QuickConfig()
	cfg.Defects = 1200
	cfg.MCSamples = 6
	cfg.MaxClassesPerMacro = 1
	cfg.SkipNonCat = true
	return cfg
}

// TestGoodSpaceMatchesSerial is the determinism contract for the
// die-sharded Monte Carlo: the compiled GoodSpace — and the detections
// scored against it — are identical for any die-worker count, because
// each die draws from its own RNG stream and the merge is index-ordered.
func TestGoodSpaceMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("good-space Monte Carlo in -short mode")
	}
	cfg := goodSpaceTestCfg()
	ctx := context.Background()

	compile := func(workers int) (*signature.GoodSpace, core.Detection) {
		t.Helper()
		p := core.NewPipeline(cfg)
		p.GoodSpaceWorkers = workers
		g, err := p.GoodSpace(ctx, false)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Score one real fault class against the space: detection is the
		// downstream consumer that must not notice the worker count.
		mr, err := p.DiscoverClasses(ctx, "comparator", false)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ca, err := p.AnalyzeClass(ctx, "comparator", mr.Classes[0], false, false)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return g, ca.Det
	}

	want, wantDet := compile(1)
	for _, workers := range []int{4, 9} {
		got, gotDet := compile(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: compiled GoodSpace differs from serial", workers)
		}
		if gotDet != wantDet {
			t.Fatalf("workers=%d: detection differs from serial: %+v vs %+v",
				workers, gotDet, wantDet)
		}
	}
}

// TestGoodSpaceCancelledMidCompile: a cancellation mid-Monte-Carlo must
// abort the die group in bounded time with a cancellation error, not
// run the remaining dies to completion.
func TestGoodSpaceCancelledMidCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("good-space Monte Carlo in -short mode")
	}
	cfg := goodSpaceTestCfg()
	cfg.MCSamples = 64 // long enough that cancellation lands mid-compile
	p := core.NewPipeline(cfg)
	p.GoodSpaceWorkers = 4
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.GoodSpace(ctx, false)
	if err == nil || !spice.IsCancelled(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	// Bounded abort: in-flight dies finish their current solve and stop.
	// The full 64-die compile takes tens of seconds; 10 s is generous for
	// an abort while still catching a run-to-completion regression.
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancellation took %v, want bounded abort", took)
	}
	// A cancelled compile must not be cached; a fresh context retries.
	// (Shrink the Monte Carlo first — the retry only proves the cache
	// stayed empty, it does not need the full 64 dies.)
	p.Cfg.MCSamples = 2
	if _, err := p.GoodSpace(context.Background(), false); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

// TestGoodSpaceSingleFlight: concurrent GoodSpace callers must share one
// compile — one goodspace span, one die set — and all receive the same
// cached pointer.
func TestGoodSpaceSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("good-space Monte Carlo in -short mode")
	}
	cfg := goodSpaceTestCfg()
	agg := obs.NewAgg()
	p := core.NewPipeline(cfg)
	p.Obs = obs.New(agg)
	p.GoodSpaceWorkers = 2

	const callers = 8
	results := make([]*signature.GoodSpace, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := p.GoodSpace(context.Background(), false)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different GoodSpace pointer: flight not shared", i)
		}
	}
	stages := agg.Snapshot()
	if st := stages[obs.StageGoodSpace]; st == nil || st.Spans != 1 {
		t.Fatalf("goodspace spans = %+v, want exactly 1 compile", st)
	}
	st := stages[obs.StageGoodSpaceDie]
	if st == nil || st.Spans != cfg.MCSamples {
		t.Fatalf("goodspace_die spans = %+v, want %d dies", st, cfg.MCSamples)
	}
	if got := st.Counters[obs.CtrGoodspaceDies.Name()]; got != int64(cfg.MCSamples) {
		t.Fatalf("goodspace_dies counter = %d, want %d", got, cfg.MCSamples)
	}
}

// TestClassTruncationCounter: when MaxClassesPerMacro drops discovered
// classes, the pipeline must say so — the classes_truncated counter is
// what keeps a capped campaign's coverage report from reading as full
// coverage.
func TestClassTruncationCounter(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.Defects = 400
	cfg.MaxClassesPerMacro = 1

	agg := obs.NewAgg()
	p := core.NewPipeline(cfg)
	p.Obs = obs.New(agg)
	// The decoder is gate-level: discovery is fast and yields well over
	// one class at this sprinkle size.
	run, err := p.DiscoverClasses(context.Background(), "decoder", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Classes) <= 1 {
		t.Fatalf("test premise broken: %d classes discovered", len(run.Classes))
	}
	snap := agg.Snapshot()
	var got int64
	for _, st := range snap {
		got += st.Counters["classes_truncated"]
	}
	want := int64(len(run.Classes) - 1)
	if got != want {
		t.Fatalf("classes_truncated = %d, want %d", got, want)
	}

	// Uncapped discovery must not emit the counter.
	cfg.MaxClassesPerMacro = 0
	agg2 := obs.NewAgg()
	p2 := core.NewPipeline(cfg)
	p2.Obs = obs.New(agg2)
	if _, err := p2.DiscoverClasses(context.Background(), "decoder", false); err != nil {
		t.Fatal(err)
	}
	for _, st := range agg2.Snapshot() {
		if st.Counters["classes_truncated"] != 0 {
			t.Fatal("uncapped discovery emitted classes_truncated")
		}
	}
}
