// Package server implements charond, the long-running simulation service:
// an HTTP job API over the charonsim experiment harness. Jobs (an
// experiment id plus a charonsim.Config) and sweeps (a parameter grid of
// jobs; a job is a one-point grid) are validated at admission,
// queued into a bounded admission queue with backpressure (429 +
// Retry-After when full), executed on a fixed worker pool through the
// public RunContext/RunAllContext entry points (which share recorded
// workloads within a job via experiments.Session), and cached: identical
// submissions are deduplicated single-flight in memory and served from a
// checkpoint-backed response cache on disk, so a warm restart answers
// repeat jobs without simulating.
//
// Endpoints:
//
//	POST   /v1/jobs             submit (202; 200 on dedup/cache hit; 429 full; 503 draining)
//	GET    /v1/jobs             list tracked jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result rendered report (CLI byte-identical)
//	DELETE /v1/jobs/{id}        cancel (context-propagated, event-loop granularity)
//	POST   /v1/sweeps           submit a grid (same admission path and statuses as jobs)
//	GET    /v1/sweeps           list tracked sweeps
//	GET    /v1/sweeps/{id}      sweep status (aggregate state, per-child rows)
//	GET    /v1/sweeps/{id}/result children's reports concatenated in grid order
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 while draining)
//	GET    /v1/metrics          server + cache counters (internal/metrics snapshot)
//
// Graceful drain: Drain stops admission, lets queued/running jobs finish,
// and on deadline expiry cancels in-flight jobs — whose completed replay
// units are already persisted in the shared per-unit checkpoint store, so
// a restarted server resumes them instead of recomputing.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
	"charonsim/internal/cli"
	"charonsim/internal/fault"
	"charonsim/internal/metrics"
)

// Config configures a Server.
type Config struct {
	// Workers is the number of concurrent job executors (default 2). Each
	// job additionally fans its simulation units out per its own
	// Parallelism knob, so keep Workers small.
	Workers int
	// QueueDepth bounds the admission queue (default 16). A full queue
	// rejects submissions with 429 + Retry-After.
	QueueDepth int
	// CacheDir, when non-empty, enables the on-disk layer: completed job
	// reports are persisted in CacheDir/results (checkpoint-backed,
	// checksummed, atomic) and served on identical resubmission across
	// restarts, and every job shares the server's one handle on
	// CacheDir/units, the per-unit checkpoint store, so partially-completed
	// work survives a drain. Empty keeps results in memory only (dedup
	// still works within the process lifetime), and jobs share no units.
	CacheDir string
	// JobTimeout, when positive, is the default per-unit RunTimeout
	// applied to jobs that do not set run_timeout themselves. It reuses
	// the existing RunTimeout plumbing: the harness worker pool budget
	// plus the replay watchdog heartbeat.
	JobTimeout time.Duration
	// MaxJobs bounds the in-memory job table and, separately, the sweep
	// table (default 1024 each); when exceeded, the oldest terminal
	// entries are evicted. Their results stay servable from the disk cache.
	MaxJobs int
	// RetryBudget bounds automatic re-executions of transiently-failed
	// jobs — injected I/O faults and recovered internal panics
	// (charonsim.ErrInternal) retry with exponential backoff plus
	// deterministic jitter; anything else fails immediately. 0 selects
	// the default (2 retries); negative disables retries entirely.
	RetryBudget int
	// RetryBackoff is the initial retry delay (default 250ms); it doubles
	// per attempt up to 64x, plus up to +50% deterministic jitter derived
	// from the job id. Tests shrink it.
	RetryBackoff time.Duration
	// ShedLatency, when positive, enables latency-aware load shedding: a
	// submission whose estimated queue wait (queued jobs × the observed
	// mean job duration ÷ workers) exceeds it is rejected with 503 +
	// Retry-After — distinct from the hard 429 queue-depth limit, which
	// still applies.
	ShedLatency time.Duration
	// Log receives structured request and lifecycle logs (nil = discard).
	Log *slog.Logger

	// runner executes one job and returns the rendered report. Tests
	// substitute a controllable stub; nil selects the real experiment
	// harness.
	runner func(ctx context.Context, experiment string, cfg charonsim.Config) (string, error)
	// fsys overrides the filesystem under the persistence stack (result
	// cache + journal); tests inject a fault.FS here. nil = real disk.
	fsys atomicio.FS
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0 // explicit "no retries"
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.runner == nil {
		c.runner = runExperiments
	}
	return c
}

// Server is the charond job service. Create with New, serve Handler(),
// stop with Drain.
type Server struct {
	cfg     Config
	log     *slog.Logger
	reg     *metrics.Registry
	results *checkpoint.Store // response cache; nil without CacheDir
	units   *checkpoint.Store // per-unit store every job shares; nil without CacheDir

	journal       *journal  // write-ahead job log; nil without CacheDir
	cacheHealth   *degrader // result-cache degraded-mode tracker
	journalHealth *degrader // journal degraded-mode tracker

	avgRunNanos atomic.Int64 // EWMA of completed job durations (shed estimator)

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu            sync.Mutex
	jobs          map[string]*job
	sweeps        map[string]*sweep
	queue         *jobQueue
	draining      bool
	drainDeadline time.Time      // Drain's ctx deadline; sizes the draining 503's Retry-After
	wg            sync.WaitGroup // worker goroutines
}

// jobQueue is the admission queue: an unbounded FIFO the workers pop
// from. The client-facing QueueDepth bound is enforced by explicit len
// checks at admission (submit's 429, the shed estimator), not by the
// queue's capacity — journal recovery and sweep expansion must always be
// able to enqueue work they have already promised a caller, even when
// that transiently exceeds the depth new submissions are held to.
//
// Keeping the queued jobs in an indexable slice is also what makes wait
// estimates position-aware: position() reports how many jobs sit ahead
// of a given id, so an early job is never quoted the whole queue's wait.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*job
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends j. Pushing after close is a no-op (the job stays tracked
// and is settled by Drain's cancellation sweep).
func (q *jobQueue) push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, j)
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed and empty;
// ok is false only in the latter case.
func (q *jobQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j = q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return j, true
}

func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// position returns how many jobs sit ahead of id in the queue, or -1
// when id is not queued (about to be popped, running, or terminal).
func (q *jobQueue) position(id string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, j := range q.items {
		if j.id == id {
			return i
		}
	}
	return -1
}

// close wakes every blocked worker; subsequent pops drain the remaining
// items and then report closed.
func (q *jobQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.cond.Broadcast()
}

// New builds a server, replays the job journal (when a cache directory is
// configured), and starts its worker pool. Unfinished journaled jobs —
// work a previous process accepted with a 202 and then died holding —
// are requeued before the first worker starts, so they resume (from
// their per-unit checkpoints) ahead of new submissions; terminal records
// are garbage-collected.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		log:    cfg.Log,
		reg:    metrics.NewRegistry(),
		jobs:   map[string]*job{},
		sweeps: map[string]*sweep{},
	}
	s.cacheHealth = &degrader{name: "result_cache", log: cfg.Log, reg: s.reg}
	s.journalHealth = &degrader{name: "journal", log: cfg.Log, reg: s.reg}
	if cfg.CacheDir != "" {
		st, err := checkpoint.OpenFS(filepath.Join(cfg.CacheDir, "results"), cfg.fsys)
		if err != nil {
			return nil, fmt.Errorf("server: result cache: %w", err)
		}
		s.results = st
		if s.units, err = checkpoint.Open(filepath.Join(cfg.CacheDir, "units")); err != nil {
			return nil, fmt.Errorf("server: unit store: %w", err)
		}
		if s.journal, err = openJournal(filepath.Join(cfg.CacheDir, "journal"), cfg.fsys, s.journalHealth); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	recovered, pendingSweeps, gcKeys := s.replayJournal()
	// The queue is unbounded internally: every recovered job enqueues
	// ahead of the client-facing admission bound — submissions are
	// rejected once QueueDepth jobs wait, but crash-recovered work must
	// never be dropped for lack of a slot.
	s.queue = newJobQueue()
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.queue.push(j)
		s.journal.record(j)
		s.reg.AddUint("server/journal_recovered", 1)
		s.log.Info("journal: recovered job", "job", j.id,
			"experiment", j.spec.Experiment, "generation", j.recovered)
	}
	gcKeys = append(gcKeys, s.recoverSweeps(pendingSweeps)...)
	if n := s.journal.gc(gcKeys); n > 0 {
		s.reg.AddUint("server/journal_gc", uint64(n))
		s.log.Info("journal: collected terminal records", "n", n)
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// replayJournal loads the journal and rebuilds the unfinished jobs a dead
// process left behind. Jobs whose result meanwhile landed in the response
// cache (crash between persist and the journal's terminal transition) are
// completed in place rather than re-run. Returns the jobs to requeue and
// the record keys to garbage-collect.
func (s *Server) replayJournal() (recovered []*job, pendingSweeps []sweepRecord, gcKeys []string) {
	pending, sweeps, terminal, err := s.journal.replay(s.log)
	if err != nil {
		s.log.Warn("journal: replay scan failed; continuing without recovery", "err", err)
		return nil, nil, nil
	}
	gcKeys = terminal
	for _, rec := range pending {
		cfg, key, rerr := rec.Spec.Resolve()
		if rerr != nil { // replay() pre-checked; defensive
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		j := newJob(gridPoint{spec: rec.Spec, cfg: cfg, key: key, id: jobID(key)}, time.Time{})
		j.created, j.attempts, j.recovered = rec.Created, rec.Attempts, rec.Recovered+1
		if text, ok := s.cachedText(key); ok {
			// The previous process finished the work and persisted the
			// report but died before journaling "done".
			j.completeFromCache(text)
			s.jobs[j.id] = j
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		recovered = append(recovered, j)
	}
	return recovered, sweeps, gcKeys
}

// Metrics exposes the server's registry (tests and the /v1/metrics
// endpoint read it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the HTTP API with request logging applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit("job", func() submission { return new(JobSpec) }))
	mux.HandleFunc("GET /v1/jobs", handleList(s, "job", s.jobs))
	mux.HandleFunc("GET /v1/jobs/{id}", handleGet(s, "job", s.jobs))
	mux.HandleFunc("GET /v1/jobs/{id}/result", handleResult(s, "job", s.jobs))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit("sweep", func() submission { return new(SweepSpec) }))
	mux.HandleFunc("GET /v1/sweeps", handleList(s, "sweep", s.sweeps))
	mux.HandleFunc("GET /v1/sweeps/{id}", handleGet(s, "sweep", s.sweeps))
	mux.HandleFunc("GET /v1/sweeps/{id}/result", handleResult(s, "sweep", s.sweeps))
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return s.logRequests(mux)
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr)
	})
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds submission bodies; a job spec is a handful of
// scalar knobs, so anything beyond this is malformed or hostile.
const maxBodyBytes = 1 << 20

// DeadlineHeader is the request header carrying the client's absolute
// deadline as an RFC3339Nano timestamp. On submission it bounds the
// job's execution: the job context expires at min(header deadline,
// start + RunTimeout), a submission whose deadline already passed is
// rejected with 504 before queueing, and a job whose deadline lapses
// while queued fails without running — the server never burns worker
// time on an answer nobody is still waiting for.
const DeadlineHeader = "X-Charon-Deadline"

// parseDeadline extracts the client deadline header (zero time when
// absent).
func parseDeadline(r *http.Request) (time.Time, error) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, raw)
	if err != nil {
		return time.Time{}, fmt.Errorf("invalid %s header %q: %v (want RFC3339Nano, e.g. %q)",
			DeadlineHeader, raw, err, time.Now().UTC().Format(time.RFC3339Nano))
	}
	return t, nil
}

// submission is a POST body: a JobSpec or a SweepSpec.
type submission interface {
	// points validates the spec and returns its grid in order plus the
	// sweep manifest that binds it — nil for a job, a one-point grid.
	points() ([]gridPoint, *sweep, error)
	// tooBig words the 413 for a body past maxBodyBytes.
	tooBig() string
}

// handleSubmit serves POST /v1/jobs and POST /v1/sweeps: a bounded,
// strict decode of the spec, validation, the deadline header, then admit.
func (s *Server) handleSubmit(name string, newSpec func() submission) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec := newSpec()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "%s", spec.tooBig())
				return
			}
			writeError(w, http.StatusBadRequest, "decoding %s spec: %v", name, err)
			return
		}
		points, sw, err := spec.points()
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid %s spec: %v", name, err)
			return
		}
		deadline, err := parseDeadline(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if !deadline.IsZero() && !deadline.After(time.Now()) {
			s.reg.AddUint("server/deadline_expired_rejects", 1)
			writeError(w, http.StatusGatewayTimeout,
				"deadline %s already expired at admission; not queueing doomed work",
				deadline.UTC().Format(time.RFC3339Nano))
			return
		}
		e, status, retryAfter, err := s.admit(points, sw, deadline, true)
		if err != nil {
			if retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			}
			writeError(w, status, "%v", err)
			return
		}
		id, _ := e.ident()
		w.Header().Set("Location", "/v1/"+name+"s/"+id)
		writeJSON(w, status, e.document())
	}
}

// admit is the one admission path: POST /v1/jobs, POST /v1/sweeps and
// sweep crash recovery all run it. points is the grid in order; sw is the
// sweep manifest that binds it, or nil for a job — a one-point grid with
// no manifest. In order, admit
//
//  1. dedups the submission against the job table (a job) or the sweep
//     table (a sweep): a queued, running or done match answers 200, and a
//     failed or canceled one is replaced by a fresh attempt;
//  2. refuses while draining;
//  3. gives every point a job: a tracked one with the same canonical key,
//     one completed from the result cache, or a fresh one;
//  4. applies the shed and depth gates once, and only when a fresh job
//     needs a queue slot. gated is false for crash recovery, which
//     re-admits work promised before the crash and must never drop it
//     for lack of a slot;
//  5. journals each fresh job, and the manifest, before the response
//     leaves, then enqueues the fresh jobs in grid order.
//
// A refused submission changes nothing but its refusal counter. admit
// returns the entry to answer with — the job, or the (possibly already
// tracked) sweep — and the status: 200 when nothing was queued and
// nothing is pending, 202 otherwise. On refusal retryAfter carries the
// Retry-After hint in seconds.
func (s *Server) admit(points []gridPoint, sw *sweep, deadline time.Time, gated bool) (e entry, status, retryAfter int, err error) {
	s.mu.Lock()
	e, status, retryAfter, err = s.admitLocked(points, sw, deadline, gated)
	s.mu.Unlock()
	if sw, ok := e.(*sweep); ok {
		s.maybeFinishSweep(sw) // a grid answered by dedup and cache alone is born terminal
	}
	return e, status, retryAfter, err
}

func (s *Server) admitLocked(points []gridPoint, sw *sweep, deadline time.Time, gated bool) (entry, int, int, error) {
	what := "jobs"
	if sw == nil {
		if j := s.trackedLocked(points[0].id); j != nil {
			// Single-flight dedup: the same descriptor is the same job. The
			// first submitter's deadline governs — a duplicate POST (a
			// client retry after an ambiguous failure) must not loosen or
			// tighten work already in flight.
			s.countReuse(j)
			return j, http.StatusOK, 0, nil
		}
	} else {
		what = "sweeps"
		if existing, ok := s.sweeps[sw.id]; ok {
			if state := aggregateState(existing.counts()); state != StateFailed && state != StateCanceled {
				// The same grid is the same sweep: reuse its children, and
				// through them every cached child result.
				s.reg.AddUint("server/sweep_dedup_hits", 1)
				return existing, http.StatusOK, 0, nil
			}
		}
	}
	if s.draining {
		return nil, http.StatusServiceUnavailable, s.drainRetryAfterLocked(),
			fmt.Errorf("server is draining; not accepting new %s", what)
	}

	children := make([]*job, len(points))
	var fresh []*job
	for i, p := range points {
		if j := s.trackedLocked(p.id); j != nil {
			children[i] = j
			continue
		}
		j := newJob(p, deadline)
		// Warm path: a prior run of this exact descriptor — possibly by an
		// earlier process over the same cache directory — already
		// persisted the report.
		if text, ok := s.cachedText(p.key); ok {
			j.completeFromCache(text)
		} else {
			fresh = append(fresh, j)
		}
		children[i] = j
	}

	if len(fresh) > 0 && gated {
		// Latency-aware shedding: refuse work we could queue but not
		// serve within the configured wait bound. Softer and earlier than
		// the hard depth limit below, with an honest Retry-After.
		if wait := s.estimatedWait(s.queue.len()); s.cfg.ShedLatency > 0 && wait > s.cfg.ShedLatency {
			s.reg.AddUint("server/shed_rejected", 1)
			return nil, http.StatusServiceUnavailable, retryAfterSeconds(wait),
				fmt.Errorf("estimated queue wait %s exceeds the %s shed bound; retry later",
					wait.Round(time.Millisecond), s.cfg.ShedLatency)
		}
		// Hard depth bound, checked against the queue as it stands: once
		// admitted, a grid's fresh jobs enqueue together — transiently
		// past QueueDepth, which later submissions then see as a full
		// queue. Batch work is never half-queued.
		if s.queue.len() >= s.cfg.QueueDepth {
			s.reg.AddUint("server/queue_rejected", 1)
			return nil, http.StatusTooManyRequests, 1,
				fmt.Errorf("admission queue full (%d queued); retry later", s.cfg.QueueDepth)
		}
	}

	// Admitted. Durability point: each fresh job, and the manifest, is
	// journaled before the response leaves the building, so a crash at any
	// later moment leaves a record to replay.
	for _, j := range children {
		if s.jobs[j.id] == j { // tracked: reused as is
			s.countReuse(j)
			continue
		}
		s.jobs[j.id] = j
		if j.cached {
			s.reg.AddUint("server/cache_hits", 1)
			continue
		}
		s.reg.AddUint("server/cache_misses", 1)
		s.reg.AddUint("server/jobs_submitted", 1)
		s.journal.record(j)
	}
	evictLocked(s.jobs, s.cfg.MaxJobs)
	var answer entry = children[0]
	if sw != nil {
		sw.children = children
		sw.childIDs = make(map[string]bool, len(children))
		for _, j := range children {
			sw.childIDs[j.id] = true
		}
		s.sweeps[sw.id] = sw
		evictLocked(s.sweeps, s.cfg.MaxJobs)
		s.journal.record(sw)
		if gated {
			s.reg.AddUint("server/sweeps_submitted", 1)
			s.reg.AddUint("server/sweep_children", uint64(len(children)))
			s.reg.AddUint("server/sweep_child_dedup", uint64(len(children)-len(fresh)))
		}
		answer = sw
	}
	for _, j := range fresh {
		s.queue.push(j)
	}
	s.reg.SetMax("server/queue_high_water", float64(s.queue.len()))
	if len(fresh) == 0 && !pending(children) {
		return answer, http.StatusOK, 0, nil
	}
	return answer, http.StatusAccepted, 0, nil
}

// trackedLocked returns the tracked job under id while it still answers
// for its descriptor — queued, running or done. A failed or canceled job
// does not: admission replaces it with a fresh attempt. Callers hold s.mu.
func (s *Server) trackedLocked(id string) *job {
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	if state, _, _ := j.snapshot(); state == StateFailed || state == StateCanceled {
		return nil
	}
	return j
}

// countReuse counts an admission answered by a tracked job: a dedup hit,
// and a cache hit too once the job is done.
func (s *Server) countReuse(j *job) {
	s.reg.AddUint("server/dedup_hits", 1)
	if state, _, _ := j.snapshot(); state == StateDone {
		s.reg.AddUint("server/cache_hits", 1)
	}
}

// pending reports whether any of children still owes a terminal state.
func pending(children []*job) bool {
	for _, j := range children {
		if state, _, _ := j.snapshot(); !terminalState(state) {
			return true
		}
	}
	return false
}

// estimatedWait predicts how long a job with `ahead` queued jobs in
// front of it waits for a worker: ahead times the observed mean job
// duration, spread over the worker pool. Zero until the first job
// completes — the server sheds on evidence, not guesses.
func (s *Server) estimatedWait(ahead int) time.Duration {
	avg := s.avgRunNanos.Load()
	if avg <= 0 || ahead <= 0 {
		return 0
	}
	return time.Duration(int64(ahead) * avg / int64(s.cfg.Workers))
}

// retryAfterSeconds renders a wait estimate as a Retry-After value
// (whole seconds, at least 1).
func retryAfterSeconds(wait time.Duration) int {
	return int(math.Max(1, math.Ceil(wait.Seconds())))
}

// drainRetryAfterLocked derives the Retry-After hint on the draining
// 503: the remaining drain budget is the earliest instant a restarted
// process could be accepting work again, so that is the honest hint.
// Without a drain deadline (or once it has passed) fall back to the
// queue-wait estimator. Callers hold s.mu.
func (s *Server) drainRetryAfterLocked() int {
	if !s.drainDeadline.IsZero() {
		if rem := time.Until(s.drainDeadline); rem > 0 {
			return retryAfterSeconds(rem)
		}
	}
	return retryAfterSeconds(s.estimatedWait(s.queue.len()))
}

// retryAfter hints when a poller of children should come back. The grid
// finishes with its deepest queued child, so that child's position
// governs: only the jobs ahead of it, plus its own expected run, feed the
// estimate — a job at the head of a deep queue is never told to back off
// behind the whole queue. With no child queued (all running or terminal)
// the hint is the 1-second floor.
func (s *Server) retryAfter(children []*job) int {
	deepest := -1
	for _, j := range children {
		if state, _, _ := j.snapshot(); state == StateQueued {
			// Position -1 is popped but not yet running: it is next.
			deepest = max(deepest, s.queue.position(j.id), 0)
		}
	}
	if deepest < 0 {
		return 1
	}
	return retryAfterSeconds(s.estimatedWait(deepest + 1))
}

// entry is a tracked resource served under /v1: a job, or a sweep over
// child jobs. A job is the one-point grid of itself, so listing, results
// and retention treat both alike.
type entry interface {
	ident() (id string, created time.Time)
	document() any // status JSON
	jobs() []*job  // grid order
	retention() (terminal, fetched bool)
	markFetched()
	// refusal words a failed or canceled child's error for the result
	// endpoint.
	refusal(child *job, state, errMsg string) string
}

// evictLocked drops terminal entries from table until at most limit
// remain. Fetched entries go first, oldest first, and only then unfetched
// ones — a terminal answer nobody has read yet still owes its submitter,
// so it must never be displaced by older entries that already delivered
// theirs. Live entries are never evicted: when only they remain, the
// table grows past limit. Callers hold s.mu.
func evictLocked[E entry](table map[string]E, limit int) {
	for len(table) > limit {
		var victim string
		var victimFetched bool
		var victimCreated time.Time
		for id, e := range table {
			terminal, fetched := e.retention()
			if !terminal {
				continue
			}
			_, created := e.ident()
			if victim == "" || fetched && !victimFetched ||
				fetched == victimFetched && created.Before(victimCreated) {
				victim, victimFetched, victimCreated = id, fetched, created
			}
		}
		if victim == "" {
			return
		}
		delete(table, victim)
	}
}

// lookup finds the entry the request's {id} names in table, answering 404
// itself when there is none.
func lookup[E entry](s *Server, name string, table map[string]E, w http.ResponseWriter, r *http.Request) (E, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := table[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown %s %q", name, id)
	}
	return e, ok
}

// cachedResult is the response-cache payload.
type cachedResult struct {
	Experiment string `json:"experiment"`
	Text       string `json:"text"`
}

func (s *Server) cachedText(key string) (string, bool) {
	if s.results == nil {
		return "", false
	}
	payload, ok := s.results.Get(key)
	if !ok {
		return "", false
	}
	var c cachedResult
	if err := json.Unmarshal(payload, &c); err != nil {
		return "", false
	}
	return c.Text, true
}

// persistResult writes the rendered report into the response cache and
// folds the outcome into the cache's health state: the first failure
// flips the server into explicitly-degraded "cache-disabled" mode (gauge
// + one-shot log), and the first subsequent success re-enables it. A
// degraded cache never fails the job — the report is still served from
// memory; it just recomputes after a restart.
func (s *Server) persistResult(key, experiment, text string) {
	if s.results == nil {
		return
	}
	payload, err := json.Marshal(cachedResult{Experiment: experiment, Text: text})
	if err != nil {
		s.cacheHealth.observe(fmt.Errorf("encode result: %w", err))
		return
	}
	s.cacheHealth.observe(s.results.Put(key, payload))
}

// handleList serves GET /v1/jobs and GET /v1/sweeps: every tracked entry
// of table, newest first, id as tie-break.
func handleList[E entry](s *Server, name string, table map[string]E) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		entries := make([]E, 0, len(table))
		for _, e := range table {
			entries = append(entries, e)
		}
		s.mu.Unlock()
		sort.Slice(entries, func(a, b int) bool {
			ida, ca := entries[a].ident()
			idb, cb := entries[b].ident()
			if !ca.Equal(cb) {
				return ca.After(cb)
			}
			return ida < idb
		})
		docs := make([]any, len(entries))
		for i, e := range entries {
			docs[i] = e.document()
		}
		writeJSON(w, http.StatusOK, map[string]any{name + "s": docs})
	}
}

// handleGet serves GET /v1/jobs/{id} and GET /v1/sweeps/{id}: the
// entry's status document, carrying the position-aware Retry-After a
// poller should honor while any child is pending — the same hint the
// result endpoint's 202 sends.
func handleGet[E entry](s *Server, name string, table map[string]E) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := lookup(s, name, table, w, r)
		if !ok {
			return
		}
		if children := e.jobs(); pending(children) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(children)))
		}
		writeJSON(w, http.StatusOK, e.document())
	}
}

// handleResult serves GET /v1/jobs/{id}/result and GET
// /v1/sweeps/{id}/result over the entry's grid: 202 + Retry-After while
// any child is pending, then the first failed or canceled child's error,
// else every child's report concatenated in grid order — one report for a
// job. Each report came through cli.RenderReports, the CLI's formatter,
// so the bytes equal the equivalent charonsim runs with their wall-clock
// trailers stripped.
func handleResult[E entry](s *Server, name string, table map[string]E) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := lookup(s, name, table, w, r)
		if !ok {
			return
		}
		children := e.jobs()
		if pending(children) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(children)))
			writeJSON(w, http.StatusAccepted, e.document())
			return
		}
		e.markFetched()
		for _, j := range children {
			state, _, errMsg := j.snapshot()
			j.markFetched()
			switch state {
			case StateFailed:
				writeError(w, http.StatusInternalServerError, "%s", e.refusal(j, state, errMsg))
				return
			case StateCanceled:
				writeError(w, http.StatusGone, "%s", e.refusal(j, state, errMsg))
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, j := range children {
			_, text, _ := j.snapshot()
			io.WriteString(w, text)
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := lookup(s, "job", s.jobs, w, r)
	if !ok {
		return
	}
	if s.cancelJob(j, "canceled by client") {
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}
	writeJSON(w, http.StatusOK, j.view()) // already terminal
}

// cancelJob requests cancellation; returns false when the job was already
// terminal. A queued job transitions immediately; a running one has its
// context canceled and transitions when the harness unwinds (event-loop
// granularity).
func (s *Server) cancelJob(j *job, reason string) bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.canceled = true
		j.errMsg = reason
		j.finished = time.Now()
		j.seq++
		close(j.done)
		j.mu.Unlock()
		s.journal.record(j)
		s.reg.AddUint("server/jobs_canceled", 1)
		s.noteChildTerminal(j)
		return true
	case StateRunning:
		j.canceled = true
		j.errMsg = reason
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// metricsResponse is the /v1/metrics body: the numeric snapshot plus an
// errors section carrying the persistence stack's last write failures
// verbatim (path included), so a full disk is diagnosable from one curl.
type metricsResponse struct {
	metrics.Snapshot
	Errors map[string]string `json:"errors,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{Snapshot: s.snapshotMetrics(), Errors: map[string]string{}}
	if s.results != nil {
		if e := s.results.LastWriteError(); e != "" {
			resp.Errors["server/result_store/last_write_error"] = e
		}
	}
	if e := s.journal.lastWriteError(); e != "" {
		resp.Errors["server/journal/last_write_error"] = e
	}
	if len(resp.Errors) == 0 {
		resp.Errors = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) snapshotMetrics() metrics.Snapshot {
	reg := metrics.NewRegistry()
	reg.Merge(s.reg.Snapshot())
	s.mu.Lock()
	reg.AddUint("server/jobs_tracked", uint64(len(s.jobs)))
	reg.AddUint("server/sweeps_tracked", uint64(len(s.sweeps)))
	s.mu.Unlock()
	reg.AddUint("server/queue_len", uint64(s.queue.len()))
	reg.SetMax("server/cache_degraded", bool01(s.cacheHealth.isDegraded()))
	reg.SetMax("server/journal_degraded", bool01(s.journalHealth.isDegraded()))
	if avg := s.avgRunNanos.Load(); avg > 0 {
		reg.SetMax("server/job_duration_ewma_s", time.Duration(avg).Seconds())
	}
	storeStats := func(prefix string, st *checkpoint.Store) {
		hits, misses, discards, writeErrs := st.Stats()
		reg.AddUint(prefix+"/hits", hits)
		reg.AddUint(prefix+"/misses", misses)
		reg.AddUint(prefix+"/discards", discards)
		reg.AddUint(prefix+"/write_errors", writeErrs)
		if n, err := st.Len(); err == nil {
			reg.AddUint(prefix+"/entries", uint64(n))
		}
	}
	if s.results != nil {
		storeStats("server/result_store", s.results)
	}
	if s.units != nil {
		storeStats("server/unit_store", s.units)
	}
	if s.journal != nil {
		storeStats("server/journal", s.journal.st)
	}
	return reg.Snapshot()
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// worker executes queued jobs until the queue is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock() // canceled while queued; nothing to do
		return
	}
	now := time.Now()
	if !j.deadline.IsZero() && !j.deadline.After(now) {
		// The client's deadline lapsed while the job sat in the queue:
		// running it now burns a worker on an answer nobody is waiting
		// for. Fail without executing.
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("client deadline %s expired while queued",
			j.deadline.UTC().Format(time.RFC3339Nano))
		j.finished = now
		j.seq++
		close(j.done)
		j.mu.Unlock()
		s.journal.record(j)
		s.reg.AddUint("server/deadline_expired_queued", 1)
		s.reg.AddUint("server/jobs_failed", 1)
		s.noteChildTerminal(j)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.seq++
	cfg := j.cfg
	deadline := j.deadline
	j.mu.Unlock()
	defer cancel()

	// Server-side plumbing, applied after the canonical key was derived
	// from the client-visible spec: the server's one per-unit store handle
	// (so drained and crash-recovered jobs resume instead of recomputing,
	// and its counters see every job's lookups) and the default per-unit
	// timeout.
	ctx = checkpoint.NewContext(ctx, s.units)
	if cfg.RunTimeout == 0 && s.cfg.JobTimeout > 0 {
		cfg.RunTimeout = s.cfg.JobTimeout
	}

	// Deadline propagation: a client-supplied deadline bounds the
	// execution context at min(header deadline, start + RunTimeout), and
	// the effective value lands back in the job's status view so pollers
	// see exactly when the server will give up. Jobs without a header
	// deadline keep the unbounded context they have always had —
	// RunTimeout alone stays a per-unit budget inside the harness, never
	// a whole-job context bound.
	if !deadline.IsZero() {
		if cfg.RunTimeout > 0 {
			if cand := now.Add(cfg.RunTimeout); cand.Before(deadline) {
				deadline = cand
			}
		}
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, deadline)
		defer dcancel()
		j.mu.Lock()
		j.deadline = deadline
		j.seq++
		j.mu.Unlock()
	}
	s.journal.record(j)

	s.log.Info("job start", "job", j.id, "experiment", j.spec.Experiment)
	text, err := s.runWithRetries(ctx, j, cfg)

	// Persist before publishing the terminal state: a client (or a
	// restarted server) that observes "done" must find the cached bytes.
	if err == nil {
		s.persistResult(j.key, j.spec.Experiment, text)
	}

	j.mu.Lock()
	j.finished = time.Now()
	attempts := len(j.attempts)
	switch {
	case err == nil:
		j.state = StateDone
		j.text = text
		s.reg.AddUint("server/jobs_completed", 1)
	case j.canceled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		if j.errMsg == "" {
			j.errMsg = err.Error()
		}
		s.reg.AddUint("server/jobs_canceled", 1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		if attempts > 1 {
			j.errMsg = fmt.Sprintf("failed after %d attempts (see attempts history): %v", attempts, err)
		}
		if errors.Is(err, context.DeadlineExceeded) && !j.deadline.IsZero() {
			j.errMsg = fmt.Sprintf("client deadline %s exceeded mid-run: %v",
				j.deadline.UTC().Format(time.RFC3339Nano), err)
			s.reg.AddUint("server/deadline_expired_running", 1)
		}
		s.reg.AddUint("server/jobs_failed", 1)
	}
	j.seq++
	state, errMsg := j.state, j.errMsg
	dur := j.finished.Sub(j.started)
	close(j.done)
	j.mu.Unlock()
	s.journal.record(j)
	s.observeRunDuration(dur)
	s.noteChildTerminal(j)

	s.log.Info("job finish", "job", j.id, "state", state, "attempts", attempts,
		"dur_s", dur.Seconds(), "err", errMsg)
}

// runWithRetries executes the job's runner, retrying transient failures —
// injected I/O faults and internal panics the harness recovered
// (charonsim.ErrInternal) — with exponential backoff plus deterministic
// jitter, up to the configured budget. Every attempt lands in the job's
// (and journal's) attempt history; completed replay units persist in the
// per-unit checkpoint store across attempts, so a retry only re-executes
// what the failed attempt left unfinished.
func (s *Server) runWithRetries(ctx context.Context, j *job, cfg charonsim.Config) (string, error) {
	for attempt := 0; ; attempt++ {
		started := time.Now()
		text, err := s.cfg.runner(ctx, j.spec.Experiment, cfg)

		j.mu.Lock()
		j.attempts = append(j.attempts, attemptRecord{
			Started: started, Finished: time.Now(), Error: errString(err),
		})
		j.seq++
		canceled := j.canceled
		j.mu.Unlock()

		if err == nil || canceled || errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return text, err
		}
		if !transientErr(err) || attempt >= s.cfg.RetryBudget {
			return text, err
		}

		delay := BackoffDelay(s.cfg.RetryBackoff, attempt, j.id)
		s.reg.AddUint("server/jobs_retried", 1)
		s.log.Warn("job retry", "job", j.id, "attempt", attempt+1,
			"budget", s.cfg.RetryBudget, "backoff", delay.String(), "err", err.Error())
		s.journal.record(j) // attempt history survives a crash mid-backoff
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// transientErr classifies failures worth retrying: injected I/O faults
// (fault.ErrInjected) and internal panics the harness recovered into
// charonsim.ErrInternal. Validation errors, watchdog aborts, and
// cancellations are terminal.
func transientErr(err error) bool {
	return errors.Is(err, charonsim.ErrInternal) || errors.Is(err, fault.ErrInjected)
}

// BackoffDelay is the one retry schedule of charond and its client: the
// wait before retry `attempt` is base doubling per attempt (capped at
// 64x) plus up to +50% jitter derived deterministically from key and the
// attempt number. The same key retries on the same schedule in every
// process, keeping chaos runs reproducible, while different keys
// desynchronize. The server keys job retries by job id; the client keys
// request retries by its seed, method and path.
func BackoffDelay(base time.Duration, attempt int, key string) time.Duration {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	d := base << uint(shift)
	h := fnv.New64a()
	h.Write([]byte(key))
	z := h.Sum64() ^ uint64(attempt+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / (1 << 53)
	return d + time.Duration(float64(d)*frac/2)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// observeRunDuration feeds the shed estimator's EWMA (weight 1/4 on the
// newest observation).
func (s *Server) observeRunDuration(d time.Duration) {
	for {
		old := s.avgRunNanos.Load()
		ewma := int64(d)
		if old > 0 {
			ewma = (3*old + int64(d)) / 4
		}
		if s.avgRunNanos.CompareAndSwap(old, ewma) {
			return
		}
	}
}

// runExperiments is the real runner: the public harness entry points,
// rendered with the CLI's formatter so served reports are byte-identical
// to a charonsim invocation.
func runExperiments(ctx context.Context, experiment string, cfg charonsim.Config) (string, error) {
	var reports []*charonsim.Report
	var err error
	if experiment == "all" {
		reports, err = charonsim.RunAllContext(ctx, cfg)
	} else {
		var r *charonsim.Report
		r, err = charonsim.RunContext(ctx, experiment, cfg)
		if r != nil {
			reports = append(reports, r)
		}
	}
	if err != nil {
		return "", err
	}
	var b strings.Builder
	cli.RenderReports(&b, reports)
	return b.String(), nil
}

// Drain gracefully stops the server: admission closes (submissions get
// 503, readyz reports draining), queued and running jobs are given until
// ctx expires to finish, and on expiry the in-flight jobs are canceled —
// their completed replay units are already in the per-unit checkpoint
// store, so a restart resumes rather than recomputes. Drain returns nil
// when every job finished, or ctx's error when it had to cut jobs short.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if dl, ok := ctx.Deadline(); ok {
		s.drainDeadline = dl
	}
	s.mu.Unlock()
	s.queue.close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Mark live jobs before cancelling so they land in "canceled"
		// with a drain-specific message, then cut the shared context.
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.state == StateQueued || j.state == StateRunning {
				j.canceled = true
				if j.errMsg == "" {
					j.errMsg = "server drain deadline expired; completed units are checkpointed"
				}
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		s.baseCancel()
		<-done
		return fmt.Errorf("server: drain deadline expired; in-flight jobs aborted after checkpointing completed units: %w", ctx.Err())
	}
}

// Close is Drain with an already-expired deadline: cancel everything and
// wait for the workers to unwind. For tests and hard shutdown paths.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}
