package server

// Network-edge behaviour: client deadline propagation (X-Charon-Deadline),
// derived Retry-After hints, and the submit path's concurrency contract
// under duplicate-storm load (run with -race).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// postJobDeadline posts a job spec with an X-Charon-Deadline header.
func postJobDeadline(t *testing.T, base, body, deadline string) (*http.Response, view) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline != "" {
		req.Header.Set(DeadlineHeader, deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v view
	_ = jsonDecode(resp.Body, &v)
	return resp, v
}

func TestSubmitExpiredDeadlineRejected(t *testing.T) {
	g := newGate("report\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	past := time.Now().Add(-time.Second).UTC().Format(time.RFC3339Nano)
	resp, _ := postJobDeadline(t, base, `{"experiment":"fig12"}`, past)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline submit = %d, want 504", resp.StatusCode)
	}
	if got := s.Metrics().Counter("server/deadline_expired_rejects"); got != 1 {
		t.Fatalf("deadline_expired_rejects = %v, want 1", got)
	}
	if n := g.runs.Load(); n != 0 {
		t.Fatalf("runner invoked %d times for a dead-on-arrival submission", n)
	}

	// Malformed header: 400, not silent acceptance.
	resp, _ = postJobDeadline(t, base, `{"experiment":"fig12"}`, "half past never")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline = %d, want 400", resp.StatusCode)
	}
}

// TestDeadlineBoundsRunningJob: a header deadline becomes the job
// context's deadline — a job that outlives it fails with a
// deadline-specific message, and the effective deadline shows in the
// status view.
func TestDeadlineBoundsRunningJob(t *testing.T) {
	g := newGate("never\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	dl := time.Now().Add(250 * time.Millisecond)
	resp, v := postJobDeadline(t, base, `{"experiment":"fig12"}`,
		dl.UTC().Format(time.RFC3339Nano))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	<-g.started // running; the gate stays shut so only the deadline can end it

	got := waitState(t, base, v.ID, StateFailed)
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("failure message %q does not mention the deadline", got.Error)
	}
	if got.Deadline == "" {
		t.Fatal("job view has no effective deadline")
	}
	reported, err := time.Parse(time.RFC3339Nano, got.Deadline)
	if err != nil {
		t.Fatalf("deadline %q is not RFC3339Nano: %v", got.Deadline, err)
	}
	if diff := reported.Sub(dl); diff < -time.Second || diff > time.Second {
		t.Fatalf("reported deadline %v is %v away from the submitted one %v", reported, diff, dl)
	}
	if got := s.Metrics().Counter("server/deadline_expired_running"); got != 1 {
		t.Fatalf("deadline_expired_running = %v, want 1", got)
	}
}

// TestDeadlineTightenedByRunTimeout: the effective deadline is
// min(header, start+RunTimeout) — a generous client deadline does not
// loosen the server's own execution budget.
func TestDeadlineTightenedByRunTimeout(t *testing.T) {
	g := newGate("never\n")
	_, base := newTestServer(t, Config{Workers: 1, JobTimeout: 200 * time.Millisecond, runner: g.runner})

	start := time.Now()
	_, v := postJobDeadline(t, base, `{"experiment":"fig12"}`,
		start.Add(time.Hour).UTC().Format(time.RFC3339Nano))
	<-g.started

	got := waitState(t, base, v.ID, StateFailed)
	reported, err := time.Parse(time.RFC3339Nano, got.Deadline)
	if err != nil {
		t.Fatalf("deadline %q: %v", got.Deadline, err)
	}
	if reported.After(start.Add(time.Minute)) {
		t.Fatalf("effective deadline %v kept the client's 1h horizon; want it tightened to start+RunTimeout", reported)
	}
}

// TestDeadlineExpiredWhileQueued: a job whose deadline lapses before a
// worker reaches it fails without ever invoking the runner.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	g := newGate("report\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	// A occupies the only worker.
	_, a := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	<-g.started
	waitState(t, base, a.ID, StateRunning)

	// B queues behind it with a deadline that cannot survive the wait.
	resp, b := postJobDeadline(t, base, `{"experiment":"fig12","workloads":["KM"]}`,
		time.Now().Add(50*time.Millisecond).UTC().Format(time.RFC3339Nano))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("B = %d, want 202", resp.StatusCode)
	}
	time.Sleep(100 * time.Millisecond) // let B's deadline lapse in the queue
	close(g.open)                      // A finishes; the worker reaches B

	got := waitState(t, base, b.ID, StateFailed)
	if !strings.Contains(got.Error, "expired while queued") {
		t.Fatalf("B failed with %q, want an expired-while-queued message", got.Error)
	}
	if n := g.runs.Load(); n != 1 {
		t.Fatalf("runner invoked %d times, want 1 (B must not run)", n)
	}
	if got := s.Metrics().Counter("server/deadline_expired_queued"); got != 1 {
		t.Fatalf("deadline_expired_queued = %v, want 1", got)
	}
}

// TestDrainingRetryAfterDerived: the draining 503's Retry-After is the
// remaining drain budget, not a hardcoded constant.
func TestDrainingRetryAfterDerived(t *testing.T) {
	g := newGate("report\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	_, a := postJob(t, base, `{"experiment":"fig12"}`)
	<-g.started
	waitState(t, base, a.ID, StateRunning)

	// Drain with a 7s budget while the job keeps the worker pinned.
	dctx, dcancel := context.WithTimeout(context.Background(), 7*time.Second)
	defer dcancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(dctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postJob(t, base, `{"experiment":"fig13"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra < 4 || ra > 7 {
		t.Fatalf("Retry-After = %d, want the ~7s remaining drain budget (4..7)", ra)
	}

	close(g.open)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestPollRetryAfterFromEstimator: the 202 poll hint scales with the
// estimated queue wait instead of a hardcoded 1.
func TestPollRetryAfterFromEstimator(t *testing.T) {
	g := newGate("report\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	// A pins the worker; B sits in the queue.
	_, a := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	<-g.started
	waitState(t, base, a.ID, StateRunning)
	_, b := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`)

	// A running job polls at the floor.
	resp := getJSON(t, base+"/v1/jobs/"+a.ID+"/result", nil)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("running poll: status=%d Retry-After=%q, want 202/\"1\"", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Teach the estimator that jobs take ~3s: the queued job's hint
	// becomes ceil(1 queued × 3s ÷ 1 worker) = 3.
	s.avgRunNanos.Store(int64(3 * time.Second))
	resp = getJSON(t, base+"/v1/jobs/"+b.ID+"/result", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued poll = %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("queued poll Retry-After = %q, want \"3\"", got)
	}

	close(g.open)
	waitState(t, base, a.ID, StateDone)
	waitState(t, base, b.ID, StateDone)
}

// TestJobStatusRetryAfter: a job's status GET carries the same
// position-aware Retry-After as its result poll while the job is pending,
// as a sweep's does, and none once it is done.
func TestJobStatusRetryAfter(t *testing.T) {
	g := newGate("report\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	_, a := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	<-g.started
	waitState(t, base, a.ID, StateRunning)
	_, b := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`)
	s.avgRunNanos.Store(int64(3 * time.Second))

	for _, tc := range []struct{ id, want string }{{a.ID, "1"}, {b.ID, "3"}} {
		var v view
		resp := getJSON(t, base+"/v1/jobs/"+tc.id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s = %d", tc.id, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.want {
			t.Fatalf("%s job status Retry-After = %q, want %q", v.State, got, tc.want)
		}
	}

	close(g.open)
	waitState(t, base, b.ID, StateDone)
	resp := getJSON(t, base+"/v1/jobs/"+b.ID, nil)
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("done job status carries Retry-After %q", got)
	}
}

// TestConcurrentDuplicateSubmissions is the duplicate-storm hammer: N
// identical POSTs racing on a cold server must converge on one job id,
// one runner invocation, and one journal record — the single-flight
// contract that makes client-side submit retries (and ambiguous
// network failures) safe. Run with -race.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	g := newGate("report\n")
	s, base := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir(), runner: g.runner})

	const n = 32
	var wg sync.WaitGroup
	ids := make([]string, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/jobs", "application/json",
				strings.NewReader(`{"experiment":"fig12","workloads":["BS"]}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var v view
			_ = jsonDecode(resp.Body, &v)
			ids[i], statuses[i] = v.ID, resp.StatusCode
		}(i)
	}
	wg.Wait()

	accepted := 0
	for i := 0; i < n; i++ {
		if ids[i] == "" || ids[i] != ids[0] {
			t.Fatalf("POST %d got job id %q, want every id identical to %q", i, ids[i], ids[0])
		}
		switch statuses[i] {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK: // dedup hit
		default:
			t.Fatalf("POST %d = %d, want 202 or 200", i, statuses[i])
		}
	}
	if accepted != 1 {
		t.Fatalf("%d POSTs were accepted as new jobs, want exactly 1", accepted)
	}

	<-g.started
	close(g.open)
	waitState(t, base, ids[0], StateDone)
	if runs := g.runs.Load(); runs != 1 {
		t.Fatalf("runner invoked %d times for %d identical submissions, want 1", runs, n)
	}
	if recs, err := s.journal.st.Len(); err != nil || recs != 1 {
		t.Fatalf("journal holds %d records (err %v), want exactly 1", recs, err)
	}
	if fmt.Sprint(g.runs.Load()) != "1" { // belt and braces after the drain of events
		t.Fatal("late duplicate execution detected")
	}
}

// TestEdgeServerTearsDownStalledWriter: a client that sends a request
// and then never reads the response cannot pin the connection — the
// edge server's WriteTimeout fires and the connection is torn down
// mid-body.
func TestEdgeServerTearsDownStalledWriter(t *testing.T) {
	// A body far larger than the kernel socket buffers, so the server's
	// write genuinely stalls against a non-reading peer.
	big := bytes.Repeat([]byte("x"), 32<<20)
	hs := edgeServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(big)
	}), 300*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close(); ln.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "GET /healthz HTTP/1.1\r\nHost: charond\r\n\r\n")

	// Stall: read nothing while the server tries to push 32MB. After
	// WriteTimeout the server must close the connection, so draining the
	// socket now ends early instead of yielding the full body.
	time.Sleep(600 * time.Millisecond)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, _ := io.Copy(io.Discard, conn)
	if n >= int64(len(big)) {
		t.Fatalf("stalled client still received the full %d-byte body; WriteTimeout never fired", len(big))
	}
}
