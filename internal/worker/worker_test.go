package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/jobserver"
	"repro/internal/report"
)

// testSpec mirrors the jobserver tests: small enough to finish in
// seconds, big enough to produce a double-digit unit count to lease.
var testSpec = core.JobSpec{
	Quick: true, Defects: 400, MCSamples: 3,
	MaxClassesPerMacro: 1, SkipNonCat: true, DfT: "pre",
}

var (
	refOnce  sync.Once
	refBytes []byte
	refErr   error
)

// referenceResult is the direct local run of testSpec — the bytes every
// remote topology must reproduce exactly.
func referenceResult(t *testing.T) []byte {
	t.Helper()
	refOnce.Do(func() {
		run, _, err := core.NewPipeline(testSpec.Config()).RunParallel(context.Background(),
			false, campaign.Options{Workers: 4})
		if err != nil {
			refErr = err
			return
		}
		refBytes, refErr = report.JSON(run)
	})
	if refErr != nil {
		t.Fatalf("reference run: %v", refErr)
	}
	return refBytes
}

// newDaemon builds a jobserver plus HTTP front end, torn down with the
// test.
func newDaemon(t *testing.T, opts jobserver.Options) (*jobserver.Server, *httptest.Server) {
	t.Helper()
	srv := jobserver.New(opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, hs
}

// startWorker runs a worker against base until the test (or the
// returned stop) cancels it.
func startWorker(t *testing.T, opts Options) (*Worker, context.CancelFunc) {
	t.Helper()
	w, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w, cancel
}

// waitParked polls the worker registry until want workers report a
// parked long-poll — the deterministic "workers are ready" barrier the
// remote tests submit behind.
func waitParked(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.NewTimer(15 * time.Second)
	defer deadline.Stop()
	for {
		ws := fetchWorkers(t, base)
		parked := 0
		for _, w := range ws {
			if w.Waiting {
				parked++
			}
		}
		if parked >= want {
			return
		}
		select {
		case <-deadline.C:
			t.Fatalf("only %d/%d workers parked", parked, want)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func fetchWorkers(t *testing.T, base string) []jobserver.WorkerStatus {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ws []jobserver.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	return ws
}

func waitResult(t *testing.T, srv *jobserver.Server, j *jobserver.Job) []byte {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Minute):
		t.Fatal("job did not finish")
	}
	if st := j.State(); st != jobserver.StateDone {
		t.Fatalf("job state %s: %+v", st, j.Status())
	}
	data, ok := j.Result("pre")
	if !ok {
		t.Fatal("no pre result")
	}
	return data
}

// TestRemoteWorkersByteIdentity is the scale-out contract: two remote
// workers, parked before submission so units demonstrably lease out,
// and the job's result bytes equal the direct local run exactly.
func TestRemoteWorkersByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	srv, hs := newDaemon(t, jobserver.Options{Budget: 2, LeaseTTL: 5 * time.Second})
	w1, _ := startWorker(t, Options{Base: hs.URL, ID: "wa", Wait: 2 * time.Second, Logf: t.Logf})
	w2, _ := startWorker(t, Options{Base: hs.URL, ID: "wb", Wait: 2 * time.Second, Logf: t.Logf})
	waitParked(t, hs.URL, 2)

	j, _, err := srv.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	data := waitResult(t, srv, j)
	if !bytes.Equal(data, referenceResult(t)) {
		t.Fatal("remote-assisted result diverges from the local run")
	}
	// The workers' own counters must catch up to the registry: the job
	// can finish — the daemon merges the final payload — a beat before
	// the posting worker's HTTP call returns and bumps its Results, so
	// poll briefly instead of snapshotting once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		remote := w1.Stats().Results + w2.Stats().Results
		var leased, results int64
		for _, ws := range fetchWorkers(t, hs.URL) {
			leased += ws.Leased
			results += ws.Results
		}
		if remote > 0 && leased > 0 && results == remote {
			t.Logf("remote units: %d (wa %+v, wb %+v)", remote, w1.Stats(), w2.Stats())
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry says %d leased / %d results, workers say %d",
				leased, results, remote)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchedWorkerByteIdentity pins satellite byte-identity at K > 1:
// a four-slot worker leases through ?max=K round-trips (its first poll
// necessarily asks for 4, so the batched wire shape is exercised), and
// the job's merged result bytes still equal the direct local run
// exactly — grouping grants changes round-trip count and nothing else.
func TestBatchedWorkerByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	srv, hs := newDaemon(t, jobserver.Options{Budget: 2, LeaseTTL: 5 * time.Second})
	w, _ := startWorker(t, Options{Base: hs.URL, ID: "wide", Slots: 4, Wait: 2 * time.Second, Logf: t.Logf})
	waitParked(t, hs.URL, 1)

	j, _, err := srv.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	data := waitResult(t, srv, j)
	if !bytes.Equal(data, referenceResult(t)) {
		t.Fatal("batched-worker result diverges from the local run")
	}
	// The registry/result beat race (see TestRemoteWorkersByteIdentity):
	// poll briefly for the worker's own counters to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := w.Stats()
		if st.Results > 0 && st.Batched > 0 {
			t.Logf("batched worker stats: %+v", st)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker stats %+v: want results > 0 and batched > 0 "+
				"(an idle 4-slot worker's first granted poll is always a ?max>1 batch)", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLeaseExpiryRequeues is the dead-worker contract: a worker leases
// a unit and goes silent, the daemon expires the lease after the TTL
// and re-runs the unit locally, the job finishes byte-identically, and
// the zombie's late result is answered 410 and discarded — the unit is
// neither lost nor merged twice.
func TestLeaseExpiryRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	srv, hs := newDaemon(t, jobserver.Options{Budget: 2, LeaseTTL: 300 * time.Millisecond})

	// Park a hand-rolled lease call (no heartbeats ever), then submit.
	grantC := make(chan jobserver.Grant, 1)
	go func() {
		body, _ := json.Marshal(jobserver.LeaseRequest{Worker: "zombie", WaitMillis: 20000})
		resp, err := http.Post(hs.URL+"/api/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var g jobserver.Grant
			if json.NewDecoder(resp.Body).Decode(&g) == nil {
				grantC <- g
			}
		}
	}()
	waitParked(t, hs.URL, 1)
	j, _, err := srv.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	var g jobserver.Grant
	select {
	case g = <-grantC:
	case <-time.After(30 * time.Second):
		t.Fatal("zombie was never granted a unit")
	}

	// The job must finish without the zombie: its lease expires after
	// one TTL and the unit re-runs locally.
	data := waitResult(t, srv, j)
	if !bytes.Equal(data, referenceResult(t)) {
		t.Fatal("result diverges after a lease expiry")
	}
	for _, ws := range fetchWorkers(t, hs.URL) {
		if ws.ID == "zombie" && ws.Expired != 1 {
			t.Fatalf("zombie registry row: %+v, want 1 expired", ws)
		}
	}

	// The zombie wakes up and posts garbage under its dead lease: the
	// daemon must refuse it (410), keeping the merged result intact.
	body, _ := json.Marshal(jobserver.ResultRequest{Lease: g.Lease, Result: json.RawMessage(`{"corrupt":true}`)})
	resp, err := http.Post(hs.URL+"/api/v1/jobs/"+g.Job+"/units/"+url.PathEscape(g.Key)+"/result",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale result answered %d, want 410", resp.StatusCode)
	}
}

// TestManualLeaseRelease: DELETE on a live lease re-queues the unit
// immediately. The daemon's lease TTL is far longer than the test
// timeout, so the job finishing at all proves the release path (not the
// expiry path) handed the unit back.
func TestManualLeaseRelease(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	srv, hs := newDaemon(t, jobserver.Options{Budget: 2, LeaseTTL: 10 * time.Minute})
	grantC := make(chan jobserver.Grant, 1)
	go func() {
		body, _ := json.Marshal(jobserver.LeaseRequest{Worker: "quitter", WaitMillis: 20000})
		resp, err := http.Post(hs.URL+"/api/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var g jobserver.Grant
			if json.NewDecoder(resp.Body).Decode(&g) == nil {
				grantC <- g
			}
		}
	}()
	waitParked(t, hs.URL, 1)
	j, _, err := srv.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	var g jobserver.Grant
	select {
	case g = <-grantC:
	case <-time.After(30 * time.Second):
		t.Fatal("no grant")
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/leases/"+url.PathEscape(g.Lease), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release answered %d", resp.StatusCode)
	}
	if data := waitResult(t, srv, j); !bytes.Equal(data, referenceResult(t)) {
		t.Fatal("result diverges after a lease release")
	}
}

// TestDaemonRestartMidLease: the daemon dies while a worker holds a
// lease, restarts on the same address and checkpoint store, and the
// resubmitted job resumes and finishes byte-identically — the worker
// rides out the outage on its retry backoff and re-attaches to the new
// daemon.
func TestDaemonRestartMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	store := campaign.DirStore{Dir: t.TempDir()}

	// First daemon on an explicit listener so the second can take over
	// the same address.
	srv1 := jobserver.New(jobserver.Options{Budget: 1, LeaseTTL: 2 * time.Second, Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: srv1.Handler()}
	go hs1.Serve(ln)
	base := "http://" + addr

	w, _ := startWorker(t, Options{
		Base: base, ID: "survivor", Wait: time.Second,
		BackoffBase: 50 * time.Millisecond, BackoffMax: 300 * time.Millisecond,
		Logf: t.Logf,
	})
	waitParked(t, base, 1)
	j1, _, err := srv1.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Let the campaign get going (and the worker lease something), then
	// kill the daemon mid-run.
	deadline := time.NewTimer(time.Minute)
	for w.Stats().Leased == 0 {
		select {
		case <-deadline.C:
			t.Fatal("worker never leased a unit")
		case <-j1.Done():
			t.Skip("campaign finished before the restart could interrupt it")
		case <-time.After(10 * time.Millisecond):
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	srv1.Shutdown(sctx)
	cancel()
	hs1.Close()

	// Second daemon, same address, same store.
	var ln2 net.Listener
	for i := 0; i < 50; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2, hs2 := jobserver.New(jobserver.Options{Budget: 1, LeaseTTL: 2 * time.Second, Store: store}), &http.Server{}
	hs2.Handler = srv2.Handler()
	go hs2.Serve(ln2)
	t.Cleanup(func() {
		hs2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	})

	j2, _, err := srv2.Submit(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	data := waitResult(t, srv2, j2)
	if !bytes.Equal(data, referenceResult(t)) {
		t.Fatal("post-restart result diverges from the local run")
	}
	t.Logf("worker stats across restart: %+v", w.Stats())
}

// TestBackoffDeterministicJitter: the retry backoff is capped
// exponential with jitter that is a pure function of (worker id,
// attempt) — reproducible runs, desynchronised fleets.
func TestBackoffDeterministicJitter(t *testing.T) {
	mk := func(id string) *Worker {
		w, err := New(Options{Base: "http://x", ID: id})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a1, a2, b := mk("wa"), mk("wa"), mk("wb")
	differ := false
	for i := 0; i < 12; i++ {
		da := a1.backoff(i)
		if da != a2.backoff(i) {
			t.Fatalf("attempt %d: same worker, different delays", i)
		}
		if da != b.backoff(i) {
			differ = true
		}
		lo, hi := a1.opts.BackoffBase/2, a1.opts.BackoffMax
		if da < lo || da >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, da, lo, hi)
		}
	}
	if !differ {
		t.Fatal("two worker ids never diverged — jitter is not seeded by id")
	}
	// Monotone growth until the cap.
	if a1.backoff(0) >= a1.opts.BackoffMax || a1.backoff(20) < a1.opts.BackoffMax/2 {
		t.Fatalf("backoff shape wrong: first %v, capped %v", a1.backoff(0), a1.backoff(20))
	}
}

// TestWorkerOptionValidation: the constructor rejects unusable options.
func TestWorkerOptionValidation(t *testing.T) {
	if _, err := New(Options{ID: "w"}); err == nil {
		t.Fatal("no base URL must be rejected")
	}
	if _, err := New(Options{Base: "http://x"}); err == nil {
		t.Fatal("no id must be rejected")
	}
	w, err := New(Options{Base: "http://x", ID: "w"})
	if err != nil || w.opts.Slots != 1 || w.opts.Wait <= 0 {
		t.Fatalf("defaults not applied: %+v, %v", w.opts, err)
	}
}
