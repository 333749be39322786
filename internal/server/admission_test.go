package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"charonsim"
)

// TestGatesOnlyWhenASlotIsNeeded: the shed and depth gates guard queue
// slots, so a submission whose every point is already done or in flight
// must not be refused by a full queue — whether it arrives as a job or as
// the same point in a one-point sweep.
func TestGatesOnlyWhenASlotIsNeeded(t *testing.T) {
	g := newGate("r\n")
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 1, runner: g.runner})

	_, done := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	<-g.started
	g.open <- struct{}{}
	waitState(t, base, done.ID, StateDone)
	_, running := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`)
	<-g.started
	postJob(t, base, `{"experiment":"fig12","workloads":["LR"]}`) // fills the queue
	if resp, _ := postJob(t, base, `{"experiment":"fig12","workloads":["PR"]}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fresh job on a full queue = %d, want 429", resp.StatusCode)
	}

	jobResp, jv := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	if jobResp.StatusCode != http.StatusOK || jv.ID != done.ID {
		t.Fatalf("done job via /v1/jobs = %d (id %s), want 200 (id %s)", jobResp.StatusCode, jv.ID, done.ID)
	}
	sweepResp, sv := postSweep(t, base, `{"experiments":["fig12"],"workloads":["BS"]}`)
	if sweepResp.StatusCode != http.StatusOK || sv.State != StateDone {
		t.Fatalf("done point via /v1/sweeps = %d (state %s), want 200 done", sweepResp.StatusCode, sv.State)
	}
	if len(sv.Children) != 1 || sv.Children[0].ID != done.ID {
		t.Fatalf("sweep children = %+v, want the done job %s", sv.Children, done.ID)
	}
	// A point in flight needs no slot either: accepted, still pending.
	inflight, iv := postSweep(t, base, `{"experiments":["fig12"],"workloads":["KM"]}`)
	if inflight.StatusCode != http.StatusAccepted || iv.Children[0].ID != running.ID {
		t.Fatalf("running point via /v1/sweeps = %d, want 202 onto job %s", inflight.StatusCode, running.ID)
	}
	close(g.open)
}

// TestSweepRetentionBound: the sweep table follows the job table's
// retention rule — terminal only, fetched first, oldest first — so
// finished sweeps (and the child jobs they hold) do not accumulate.
func TestSweepRetentionBound(t *testing.T) {
	instant := func(ctx context.Context, exp string, cfg charonsim.Config) (string, error) {
		return "r\n", nil
	}
	s, base := newTestServer(t, Config{Workers: 1, MaxJobs: 2, runner: instant})

	var ids []string
	for _, wl := range charonsim.Workloads() {
		_, sw := postSweep(t, base, fmt.Sprintf(`{"experiments":["fig12"],"workloads":[%q]}`, wl))
		waitSweepState(t, base, sw.ID, StateDone)
		fetchSweepResult(t, base, sw.ID)
		ids = append(ids, sw.ID)
	}
	snap := s.snapshotMetrics()
	if n := snap.Counters["server/sweeps_tracked"]; n > 2 {
		t.Fatalf("sweeps_tracked = %v after %d fetched sweeps, want <= MaxJobs (2)", n, len(ids))
	}
	if n := snap.Counters["server/jobs_tracked"]; n > 2 {
		t.Fatalf("jobs_tracked = %v, want <= MaxJobs (2)", n)
	}
	if resp := getJSON(t, base+"/v1/sweeps/"+ids[0], nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest fetched sweep survived eviction (GET = %d, want 404)", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/v1/sweeps/"+ids[len(ids)-1], nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("newest sweep was evicted (GET = %d, want 200)", resp.StatusCode)
	}
}

// TestJobIsAOnePointSweep: a descriptor POSTed to /v1/jobs and the same
// point POSTed as a one-point sweep are one admission — the same child
// id, one runner invocation, identical result bytes, and identical
// counter deltas at every stage: cold, tracked dedup, and a disk-cache
// hit after a reboot.
func TestJobIsAOnePointSweep(t *testing.T) {
	// A poster submits the point and returns the status, the child job
	// id, and the result URL of the entry it created.
	type poster func(t *testing.T, base string) (status int, childID, result string)
	viaJob := func(t *testing.T, base string) (int, string, string) {
		resp, v := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
		return resp.StatusCode, v.ID, base + v.Result
	}
	viaSweep := func(t *testing.T, base string) (int, string, string) {
		resp, v := postSweep(t, base, `{"experiments":["fig12"],"workloads":["BS"]}`)
		if len(v.Children) != 1 {
			t.Fatalf("one-point sweep has %d children", len(v.Children))
		}
		return resp.StatusCode, v.Children[0].ID, base + v.Result
	}
	counters := []string{"server/jobs_submitted", "server/dedup_hits", "server/cache_hits", "server/cache_misses"}

	type stage struct {
		status int
		id     string
		delta  map[string]float64
	}
	// run POSTs through first on a cold server, waits, resubmits through
	// second, then reboots over the same cache directory and POSTs
	// through first again.
	run := func(first, second poster) (stages []stage, results []string, runs int64) {
		var n atomic.Int64
		runner := func(ctx context.Context, exp string, cfg charonsim.Config) (string, error) {
			n.Add(1)
			return "the report\n", nil
		}
		cacheDir := t.TempDir()
		step := func(s *Server, base string, post poster) {
			before := s.snapshotMetrics().Counters
			status, id, result := post(t, base)
			waitState(t, base, id, StateDone)
			after := s.snapshotMetrics().Counters
			d := map[string]float64{}
			for _, c := range counters {
				d[c] = after[c] - before[c]
			}
			stages = append(stages, stage{status, id, d})
			results = append(results, fetchResultAt(t, result))
		}
		s1, base1 := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: runner})
		step(s1, base1, first)
		step(s1, base1, second)
		s2, base2 := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: runner})
		step(s2, base2, first)
		return stages, results, n.Load()
	}

	jobFirst, jobResults, jobRuns := run(viaJob, viaSweep)
	sweepFirst, sweepResults, sweepRuns := run(viaSweep, viaJob)
	if jobRuns != 1 || sweepRuns != 1 {
		t.Fatalf("runner invocations = %d (job first) and %d (sweep first), want 1 each", jobRuns, sweepRuns)
	}
	for i := range jobFirst {
		a, b := jobFirst[i], sweepFirst[i]
		if a.status != b.status || a.id != b.id {
			t.Errorf("stage %d: job path %d id %s, sweep path %d id %s", i, a.status, a.id, b.status, b.id)
		}
		for _, c := range counters {
			if a.delta[c] != b.delta[c] {
				t.Errorf("stage %d: %s delta %v via job, %v via sweep", i, c, a.delta[c], b.delta[c])
			}
		}
	}
	if want := []int{http.StatusAccepted, http.StatusOK, http.StatusOK}; jobFirst[0].status != want[0] ||
		jobFirst[1].status != want[1] || jobFirst[2].status != want[2] {
		t.Errorf("statuses = %d %d %d, want %v", jobFirst[0].status, jobFirst[1].status, jobFirst[2].status, want)
	}
	for _, r := range append(jobResults, sweepResults...) {
		if r != "the report\n" {
			t.Fatalf("result bytes %q, want the runner's report", r)
		}
	}
}

// TestConcurrentJobAndSweepAdmission: the same descriptor POSTed at once
// through both endpoints converges on one job and one run — admission is
// a single critical section whichever endpoint it comes through. Run
// with -race.
func TestConcurrentJobAndSweepAdmission(t *testing.T) {
	g := newGate("report\n")
	_, base := newTestServer(t, Config{Workers: 2, MaxJobs: 2, CacheDir: t.TempDir(), runner: g.runner})

	const n = 16
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, body := "/v1/jobs", `{"experiment":"fig12","workloads":["BS"]}`
			if i%2 == 1 {
				path, body = "/v1/sweeps", `{"experiments":["fig12"],"workloads":["BS"]}`
			}
			resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var v struct {
				ID       string           `json:"id"`
				Children []sweepChildView `json:"children"`
			}
			_ = jsonDecode(resp.Body, &v)
			ids[i] = v.ID
			if len(v.Children) == 1 {
				ids[i] = v.Children[0].ID
			}
		}(i)
	}
	wg.Wait()
	for i := range ids {
		if ids[i] == "" || ids[i] != ids[0] {
			t.Fatalf("POST %d reached job %q, want every POST on %q", i, ids[i], ids[0])
		}
	}
	<-g.started
	close(g.open)
	waitState(t, base, ids[0], StateDone)
	if runs := g.runs.Load(); runs != 1 {
		t.Fatalf("runner invoked %d times for %d submissions of one descriptor, want 1", runs, n)
	}
}

func fetchResultAt(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}
