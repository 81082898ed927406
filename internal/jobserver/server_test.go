package jobserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/report"
)

// testSpec is the tiny campaign the server tests run: small enough to
// finish in seconds, large enough to exercise every pipeline stage and
// produce several checkpointable units.
var testSpec = core.JobSpec{
	Quick: true, Defects: 400, MCSamples: 3,
	MaxClassesPerMacro: 1, SkipNonCat: true, DfT: "pre",
}

// refOnce computes the reference result bytes once per test binary: the
// direct Pipeline.RunParallel + report.JSON of testSpec — what `dotest`
// with the same parameters writes.
var (
	refOnce  sync.Once
	refBytes []byte
	refErr   error
)

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

// newTestServer builds a server plus its HTTP front end, torn down with
// the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, hs
}

func postSpec(t *testing.T, base string, spec core.JobSpec) (SubmitResponse, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func fetchResult(t *testing.T, base, id, dft string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/result?dft=%s&wait=1", base, id, dft))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, data)
	}
	return data
}

// TestSubmitDedupRace: N concurrent POSTs of the same spec collapse
// into exactly one campaign run, and every submitter fetches
// byte-identical results — which are in turn byte-identical to the
// direct CLI-equivalent run of the same spec.
func TestSubmitDedupRace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	srv, hs := newTestServer(t, Options{Budget: 4})

	const n = 6
	var wg sync.WaitGroup
	ids := make([]string, n)
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, code := postSpec(t, hs.URL, testSpec)
			if code != http.StatusCreated && code != http.StatusOK {
				t.Errorf("submit status %d", code)
				return
			}
			ids[i] = out.ID
			results[i] = fetchResult(t, hs.URL, out.ID, "pre")
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := srv.RunsStarted(); got != 1 {
		t.Fatalf("%d runs started for %d identical submissions", got, n)
	}
	ref := referenceResult(t)
	for i := 0; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s", i, ids[i], ids[0])
		}
		if !bytes.Equal(results[i], ref) {
			t.Fatalf("submission %d result differs from the direct run (%d vs %d bytes)",
				i, len(results[i]), len(ref))
		}
	}
	// The job counted every submission even though only one ran.
	j, ok := srv.Job(ids[0])
	if !ok || j.Status().Submits != n {
		t.Fatalf("submits = %d, want %d", j.Status().Submits, n)
	}
}

// readEvents consumes a JSONL event stream until the decoder breaks or
// the stream ends, returning every parsed event.
func readEvents(t *testing.T, r io.Reader, stopAtTerminal bool) []Event {
	t.Helper()
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if stopAtTerminal && ev.Type == "state" && ev.State != StateRunning {
			break
		}
	}
	return events
}

// TestEventsSnapshotThenTail: a watcher attaching mid-run first gets the
// snapshot (a state event leading), then the live tail through to the
// terminal state; a second watcher that disconnects early neither
// blocks nor cancels the run.
func TestEventsSnapshotThenTail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	srv, hs := newTestServer(t, Options{Budget: 4})
	out, code := postSpec(t, hs.URL, testSpec)
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}

	eventsURL := fmt.Sprintf("%s/api/v1/jobs/%s/events?format=jsonl", hs.URL, out.ID)

	// The early-disconnect watcher: read one event, then drop the
	// connection while the job is (very likely) still running.
	resp, err := http.Get(eventsURL)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var first Event
	if err := json.Unmarshal([]byte(line), &first); err != nil || first.Type != "state" {
		t.Fatalf("disconnecting watcher's first event %q: %v", line, err)
	}

	// The persistent watcher: snapshot leads with the state event, the
	// tail ends with the terminal state.
	resp2, err := http.Get(eventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("content type %q", ct)
	}
	events := readEvents(t, resp2.Body, true)
	if len(events) == 0 || events[0].Type != "state" || events[0].Job != out.ID {
		t.Fatalf("first event %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("terminal event %+v (error %q)", last, last.Error)
	}
	var progress, spans int
	for _, ev := range events {
		switch ev.Type {
		case "progress":
			progress++
			if ev.DfT != "pre" || ev.Progress == nil {
				t.Fatalf("progress event %+v", ev)
			}
		case "span":
			spans++
			if ev.Span == nil || ev.Span.Stage == "" {
				t.Fatalf("span event %+v", ev)
			}
		}
	}
	if progress == 0 {
		t.Fatal("no progress events in the stream")
	}
	if spans == 0 {
		t.Fatal("no span events in the stream")
	}

	// The early disconnect did not take the job down with it.
	j, _ := srv.Job(out.ID)
	if st := j.State(); st != StateDone {
		t.Fatalf("job state %s after watcher disconnect", st)
	}
}

// TestSSEFraming: the default (non-JSONL) stream uses SSE event framing.
func TestSSEFraming(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	_, hs := newTestServer(t, Options{Budget: 4})
	out, _ := postSpec(t, hs.URL, testSpec)
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/events?spans=0", hs.URL, out.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for len(lines) < 2 && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "event: state") ||
		!strings.HasPrefix(lines[1], "data: {") {
		t.Fatalf("SSE framing: %q", lines)
	}
}

// TestRestartResume: a job killed with its server resumes from the
// shared DirStore on a fresh server — the restored unit count is
// visible in the progress counters and the final bytes still match the
// direct run exactly.
func TestRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	store := campaign.DirStore{Dir: t.TempDir()}

	srv1 := New(Options{Budget: 4, Store: store})
	j1, deduped, err := srv1.Submit(testSpec)
	if err != nil || deduped {
		t.Fatalf("submit: %v deduped=%v", err, deduped)
	}
	// Let the run make real progress (at least one checkpointable unit),
	// then kill the server the way a daemon shutdown would.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if st := j1.Status(); st.Progress["pre"].Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if st := j1.State(); st != StateCancelled && st != StateDone {
		t.Fatalf("job state %s after shutdown", st)
	}
	fps, err := store.List()
	if err != nil || len(fps) == 0 {
		t.Fatalf("no checkpoint persisted: %v, %v", fps, err)
	}

	// A fresh server over the same store: the same spec resumes instead
	// of recomputing from scratch.
	srv2, hs := newTestServer(t, Options{Budget: 4, Store: store})
	out, code := postSpec(t, hs.URL, testSpec)
	if code != http.StatusCreated {
		t.Fatalf("resubmit status %d", code)
	}
	if out.ID != j1.ID() {
		t.Fatalf("job id changed across restart: %s vs %s", out.ID, j1.ID())
	}
	data := fetchResult(t, hs.URL, out.ID, "pre")
	if !bytes.Equal(data, referenceResult(t)) {
		t.Fatal("resumed result differs from the direct run")
	}
	j2, _ := srv2.Job(out.ID)
	final := j2.Status()
	if j1.State() == StateCancelled && final.Progress["pre"].Restored == 0 {
		t.Fatalf("nothing restored on resume: %+v", final.Progress["pre"])
	}
}

// TestCancelAndResubmit: DELETE cancels a live job; resubmitting the
// same spec restarts it under the same id instead of deduping onto the
// cancelled run.
func TestCancelAndResubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	srv, hs := newTestServer(t, Options{Budget: 4})
	out, _ := postSpec(t, hs.URL, testSpec)

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/"+out.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j, _ := srv.Job(out.ID)
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cancel did not terminate the job")
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state %s after cancel", st)
	}

	out2, code := postSpec(t, hs.URL, testSpec)
	if code != http.StatusCreated {
		t.Fatalf("resubmit of a cancelled job: status %d (want a restart)", code)
	}
	if out2.ID != out.ID {
		t.Fatalf("restart changed the job id: %s vs %s", out2.ID, out.ID)
	}
	if got := srv.RunsStarted(); got != 2 {
		t.Fatalf("runs started = %d, want 2", got)
	}
	if !bytes.Equal(fetchResult(t, hs.URL, out2.ID, "pre"), referenceResult(t)) {
		t.Fatal("restarted result differs from the direct run")
	}
}

// TestHTTPValidation: malformed requests are rejected with structured
// errors and never reach the campaign engine.
func TestHTTPValidation(t *testing.T) {
	srv, hs := newTestServer(t, Options{Budget: 1})

	post := func(body string) (int, string) {
		resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	if code, body := post(`{"dft":"sideways"}`); code != http.StatusBadRequest ||
		!strings.Contains(body, "dft") {
		t.Fatalf("bad dft: %d %s", code, body)
	}
	if code, _ := post(`{"defects":-1}`); code != http.StatusBadRequest {
		t.Fatalf("negative field accepted: %d", code)
	}
	if code, _ := post(`{"no_such_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", code)
	}
	if code, _ := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("non-JSON accepted: %d", code)
	}
	if srv.RunsStarted() != 0 {
		t.Fatalf("%d runs started by invalid submissions", srv.RunsStarted())
	}

	for _, path := range []string{
		"/api/v1/jobs/jdeadbeef",
		"/api/v1/jobs/jdeadbeef/events",
		"/api/v1/jobs/jdeadbeef/result",
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Empty checkpoint listing (no store configured).
	resp, err = http.Get(hs.URL + "/api/v1/checkpoints")
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	if err := json.NewDecoder(resp.Body).Decode(&fps); err != nil || len(fps) != 0 {
		t.Fatalf("checkpoints: %v, %v", fps, err)
	}
	resp.Body.Close()
}

// TestDispatcherBatchGrants pins the batched-lease protocol at the
// dispatcher level, where it is deterministic: a waiter parked with
// capacity 3 absorbs three consecutive offers into one round-trip, a
// fourth offer finds no waiter (the capacity is spent and the waiter
// has left the FIFO), and each grant is an independent lease with its
// own id, result channel and TTL timer.
func TestDispatcherBatchGrants(t *testing.T) {
	d := newDispatcher(context.Background(), time.Minute, nil)

	type parkOut struct {
		leases []*lease
		err    error
	}
	out := make(chan parkOut, 1)
	go func() {
		ls, err := d.parkN(context.Background(), "batcher", "", 10*time.Second, 3)
		out <- parkOut{ls, err}
	}()

	// Deterministic barrier: the waiter is in the FIFO once the registry
	// reports it parked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := d.WorkerStatuses()
		if len(ws) == 1 && ws[0].Waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}

	var offered []*lease
	for _, key := range []string{"u1", "u2", "u3"} {
		l := d.offer("j1", "pre", key)
		if l == nil {
			t.Fatalf("offer %s found no waiter", key)
		}
		offered = append(offered, l)
	}
	// Capacity spent: the next offer must decline into the local path.
	if l := d.offer("j1", "pre", "u4"); l != nil {
		t.Fatalf("offer past the waiter capacity granted %s", l.id)
	}

	got := <-out
	if got.err != nil {
		t.Fatalf("parkN: %v", got.err)
	}
	if len(got.leases) != 3 {
		t.Fatalf("parkN returned %d leases, want 3", len(got.leases))
	}
	seen := map[string]bool{}
	for i, l := range got.leases {
		if l != offered[i] {
			t.Fatalf("grant %d is not the offered lease (order lost)", i)
		}
		if seen[l.id] {
			t.Fatalf("duplicate lease id %s in batch", l.id)
		}
		seen[l.id] = true
		if l.key != fmt.Sprintf("u%d", i+1) || l.jobID != "j1" || l.dft != "pre" {
			t.Fatalf("grant %d: %+v", i, l)
		}
	}
	// Per-unit semantics survive batching: heartbeat and result act on
	// one lease without touching its batch-mates.
	if !d.heartbeat(got.leases[0].id) {
		t.Fatal("heartbeat on a batched lease failed")
	}
	if !d.postResult(got.leases[1].id, "j1", "u2", leaseResult{raw: json.RawMessage(`1`)}) {
		t.Fatal("result on a batched lease refused")
	}
	if !d.heartbeat(got.leases[0].id) || !d.heartbeat(got.leases[2].id) {
		t.Fatal("sibling leases died with their batch-mate's result")
	}
	if d.heartbeat(got.leases[1].id) {
		t.Fatal("completed lease still heartbeats")
	}
}

// TestSubmitAfterShutdown: a shut-down server refuses new work.
func TestSubmitAfterShutdown(t *testing.T) {
	srv := New(Options{Budget: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(testSpec); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
}

// TestResultWaitClientDisconnect pins the abandoned-wait contract of
// GET .../result?wait=1: a client that disconnects mid-wait gets its
// handler released promptly (no body is written — there is no one left
// to write to) and leaves nothing behind — the job keeps running and a
// concurrent ?wait=1 watcher still receives the full, correct result.
func TestResultWaitClientDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	_, hs := newTestServer(t, Options{})
	sub, code := postSpec(t, hs.URL, testSpec)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	url := fmt.Sprintf("%s/api/v1/jobs/%s/result?dft=pre&wait=1", hs.URL, sub.ID)

	// The surviving watcher, racing the doomed wait on the same job.
	type watchOut struct {
		data []byte
		err  error
	}
	watch := make(chan watchOut, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			watch <- watchOut{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("watcher status %d: %s", resp.StatusCode, data)
		}
		watch <- watchOut{data: data, err: err}
	}()

	// The doomed wait: same endpoint, canceled while the job is still
	// running (the test campaign takes seconds; the cancel lands in ms).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	doomed := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		doomed <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-doomed:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("doomed wait returned %v, want context cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled ?wait=1 request did not return")
	}

	out := <-watch
	if out.err != nil {
		t.Fatalf("watcher after canceled wait: %v", out.err)
	}
	if !bytes.Equal(out.data, referenceResult(t)) {
		t.Fatal("watcher result diverged after a concurrent canceled wait")
	}
}

// TestVehicleSplitsJobs: two submissions identical except for the
// vehicle resolution must get distinct job ids and must not single-flight
// onto one run — a 6-bit campaign's results are not an 8-bit campaign's.
func TestVehicleSplitsJobs(t *testing.T) {
	srv, hs := newTestServer(t, Options{Budget: 2})

	out8, code8 := postSpec(t, hs.URL, testSpec)
	spec6 := testSpec
	spec6.Bits = 6
	out6, code6 := postSpec(t, hs.URL, spec6)
	if code8 != http.StatusCreated || code6 != http.StatusCreated {
		t.Fatalf("submit statuses %d/%d, want both 201", code8, code6)
	}
	if out8.ID == out6.ID {
		t.Fatalf("6-bit and 8-bit submissions share job id %s", out8.ID)
	}
	if out8.Deduped || out6.Deduped {
		t.Fatalf("vehicle-distinct submissions deduped: 8-bit=%v 6-bit=%v",
			out8.Deduped, out6.Deduped)
	}
	// An explicit default-bits resubmission is the same campaign as the
	// unset-bits one and must dedup onto it.
	specDefault := testSpec
	specDefault.Bits = 8
	outDef, _ := postSpec(t, hs.URL, specDefault)
	if outDef.ID != out8.ID || !outDef.Deduped {
		t.Fatalf("explicit default bits did not dedup: id %s vs %s (deduped %v)",
			outDef.ID, out8.ID, outDef.Deduped)
	}

	// The ids were the point — cancel both runs rather than simulating
	// two campaigns to completion.
	for _, id := range []string{out8.ID, out6.ID} {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		j, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("cancel did not terminate job %s", id)
		}
	}
}
