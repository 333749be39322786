// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) from the simulator: each Fig*/Table* function
// runs the required workloads, replays their recorded GC logs on the
// relevant platforms, and returns a typed result that renders the same
// rows/series the paper plots. DESIGN.md §3 maps each experiment to the
// modules it exercises; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"charonsim/internal/checkpoint"
	"charonsim/internal/energy"
	"charonsim/internal/exec"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
	"charonsim/internal/stats"
	"charonsim/internal/workload"
)

// Config controls an experiment session.
type Config struct {
	// Threads is the GC thread count (default 8, matching the 8-core host).
	Threads int
	// Factor is the heap overprovisioning factor (default 1.5, inside the
	// paper's 1.25-2x policy).
	Factor float64
	// Workloads restricts the benchmark set (default: all six).
	Workloads []string
	// Parallelism bounds the number of concurrent record/replay workers
	// the experiment harness fans out (default runtime.GOMAXPROCS(0);
	// values < 0 force serial execution). Every simulation unit — one
	// (workload, factor, mode) recording or one (run, platform, threads)
	// replay — shares no mutable state with any other, so results are
	// byte-identical at every parallelism level.
	Parallelism int
	// Metrics, when non-nil, accumulates every replayed platform's
	// component counters (cores, caches, DRAM banks, HMC links/vaults,
	// Charon units). Registries merge by sum/max, both commutative, so a
	// snapshot's values are identical at every parallelism level.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives event spans (GC pauses, flushes,
	// Charon offloads) from every replay.
	Trace *metrics.Recorder
	// Fault injects the configured reliability faults into every replayed
	// platform (see internal/fault). Recordings are unaffected — the
	// collector's functional log is fault-independent; only replay timing
	// degrades. The zero value keeps every report byte-identical to a
	// fault-free harness.
	Fault fault.Config
	// RunTimeout, when positive, bounds each simulation unit's wall-clock
	// time in the worker pool; a run exceeding it fails with a timeout
	// error instead of hanging the sweep. Zero disables the budget. The
	// same budget arms the replay watchdog's wall-clock heartbeat, which
	// — unlike the pool's timer — stops the wedged goroutine itself.
	RunTimeout time.Duration
	// Ctx, when non-nil, cancels the session's work: the worker pool stops
	// dispatching, and in-flight replays abort at GC-event / event-loop
	// granularity with an error satisfying errors.Is(err, ctx.Err()).
	// Nil means context.Background() (never cancelled).
	Ctx context.Context
	// Checkpoint, when non-nil, makes sweeps resumable: every replay unit
	// is keyed by a canonical hash of its fully-resolved configuration,
	// consulted before dispatching and persisted (atomically, with a
	// checksum) after completing. An entry holds the unit's results and
	// its component counters, so a resumed sweep's report and metrics
	// snapshot both match an uninterrupted run. Ignored while Trace is
	// set: a trace needs every unit simulated live (the public
	// Config.Validate rejects the combination).
	Checkpoint *checkpoint.Store
	// WatchdogStalls bounds consecutive replay-scheduler steps without
	// simulated-time advance before a run is declared wedged and aborted
	// with sim.ErrNoProgress plus a diagnostic dump. 0 selects
	// sim.DefaultStallLimit; negative disables the check.
	WatchdogStalls int
}

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Factor == 0 {
		c.Factor = 1.5
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.Names()
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// watchdog resolves the session's progress-monitor configuration for one
// run unit: the stall budget, the per-run wall-clock heartbeat, and
// the cancellation context.
func (c Config) watchdog() sim.Watchdog {
	wd := sim.DefaultWatchdog()
	switch {
	case c.WatchdogStalls > 0:
		wd.StallLimit = uint64(c.WatchdogStalls)
	case c.WatchdogStalls < 0:
		wd.StallLimit = 0
	}
	wd.WallClock = c.RunTimeout
	wd.Ctx = c.Ctx
	return wd
}

// Run is one recorded workload execution.
type Run struct {
	Name    string
	Factor  float64 // heap overprovisioning the recording ran at
	Mode    gc.Mode // collector mode the recording ran under
	Spec    workload.Spec
	Col     *gc.Collector
	Env     exec.Env
	MutTime sim.Time
}

// Session memoizes recorded workload runs and platform replays, so a
// full experiment suite records each workload once and simulates each
// replay unit — one (recording, platform hardware, threads, fault)
// replay — once, however many figures and ablation points normalize to
// it. It is the only place experiments build platforms, so its trace
// recorder, watchdog, context, fault config and checkpoint store reach
// every simulated unit.
//
// Session is safe for concurrent use. Both memos are single-flight (see
// singleFlight). Record/RecordMode key on (workload, factor, mode);
// replays key on runKey, the canonical key the checkpoint store also
// uses. A recording is immutable once returned, so replays of different
// units proceed concurrently.
type Session struct {
	cfg Config

	mu      sync.Mutex
	runs    map[string]*flight[*Run]     // key: name@factor@mode
	replays map[string]*flight[replayed] // key: runKey
	// simulated counts replay units actually simulated (see Replays).
	simulated int

	// onRecord, when set, is invoked (synchronously, off the lock) each
	// time a recording is actually executed — the exactly-once counter
	// hook the concurrency tests use.
	onRecord func(key string)
}

// flight is the single-flight slot of one memo key. The first caller for
// the key owns it and runs the work; the others block on done until val
// and err are final.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// singleFlight returns the memoized outcome of key in m, running fn on the
// first call. Release has one rule for both memos. A returned error is
// final and stays memoized: recording and replay are deterministic, so the
// key would fail identically on retry. A panic (a watchdog abort, a
// cancelled context, a tripped invariant) is not: the slot is dropped so a
// later call runs again, every waiter gets the panic as a panicError, and
// the owner re-panics. No exit path leaves a waiter blocked.
func singleFlight[T any](mu *sync.Mutex, m map[string]*flight[T], key string, fn func() (T, error)) (T, error) {
	mu.Lock()
	f, hit := m[key]
	if !hit {
		f = &flight[T]{done: make(chan struct{})}
		m[key] = f
	}
	mu.Unlock()
	if hit {
		<-f.done
		return f.val, f.err
	}
	defer func() {
		if p := recover(); p != nil {
			f.err = panicError(p)
			mu.Lock()
			delete(m, key)
			mu.Unlock()
			close(f.done)
			panic(p)
		}
	}()
	f.val, f.err = fn()
	close(f.done)
	return f.val, f.err
}

// replayed is one replay unit's record: its per-event results and its
// own component counters. The memo and the checkpoint store hold the same
// record, and every use merges Counters into the session registry, so a
// memo or checkpoint hit counts the simulation it stands for.
type replayed struct {
	Results  []exec.Result    `json:"results"`
	Counters metrics.Snapshot `json:"counters"`
}

// NewSession creates a session.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg.withDefaults(), runs: map[string]*flight[*Run]{},
		replays: map[string]*flight[replayed]{}}
}

// Config returns the session configuration (defaults applied).
func (s *Session) Config() Config { return s.cfg }

// SetRecordHook registers a callback fired once per actually-executed
// recording (not per cache hit). Must be set before the session is shared
// across goroutines.
func (s *Session) SetRecordHook(fn func(key string)) { s.onRecord = fn }

// RecordKey is the memoization key for (name, factor, mode).
func RecordKey(name string, factor float64, mode gc.Mode) string {
	return fmt.Sprintf("%s@%.3f@%v", name, factor, mode)
}

// Record returns the recorded run for a workload at a heap factor,
// executing it on first use.
func (s *Session) Record(name string, factor float64) (*Run, error) {
	return s.RecordMode(name, factor, gc.ModePS)
}

// RecordMode is Record with collector-mode selection (Table 1's three
// collectors), for the applicability studies.
func (s *Session) RecordMode(name string, factor float64, mode gc.Mode) (*Run, error) {
	key := RecordKey(name, factor, mode)
	return singleFlight(&s.mu, s.runs, key, func() (*Run, error) {
		if s.onRecord != nil {
			s.onRecord(key)
		}
		return record(name, factor, mode)
	})
}

// record executes one workload recording. It touches no session state.
func record(name string, factor float64, mode gc.Mode) (*Run, error) {
	w, err := workload.New(name)
	if err != nil {
		return nil, err
	}
	col, err := workload.RunRecordedMode(w, factor, mode)
	if err != nil {
		return nil, fmt.Errorf("%s at %.2fx: %w", name, factor, err)
	}
	return &Run{
		Name: name, Factor: factor, Mode: mode, Spec: w.Spec(), Col: col,
		Env:     exec.EnvFor(col),
		MutTime: workload.MutatorTime(w.Spec(), col.H),
	}, nil
}

// Executions reports how many distinct recordings the session has actually
// executed (completed or in flight) — cache hits do not add to it.
func (s *Session) Executions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Replays reports how many replay units the session has simulated
// (completed, failed or in flight). Memo and checkpoint hits do not add
// to it; with a trace recorder every replay simulates, so each adds one.
func (s *Session) Replays() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simulated
}

// Replay plays a run's full GC log on a platform of the given kind,
// returning per-event results; the session's fault configuration (if
// any) applies. See ReplayFault for memoization: the returned slice is
// shared and read-only.
func (s *Session) Replay(r *Run, kind exec.Kind, threads int) ([]exec.Result, error) {
	return s.ReplayFault(r, kind, threads, s.cfg.Fault)
}

// ReplayFault is Replay with an explicit fault configuration, overriding
// the session's — the fault-sweep experiment uses it to replay the same
// recording at several fault rates within one session. The platform has
// Table 2 hardware; see replay for memoization and failure handling.
func (s *Session) ReplayFault(r *Run, kind exec.Kind, threads int, fc fault.Config) ([]exec.Result, error) {
	return s.replay(unit{r: r, kind: kind, threads: threads, fc: fc})
}

// unit is one replay unit: a recording played with threads GC threads on
// a platform of the given kind and hardware, under fault config fc.
type unit struct {
	r       *Run
	kind    exec.Kind
	threads int
	// hw carries the platform hardware: CharonConfig and Topology (the
	// ablation points' knobs). The session supplies every other option.
	hw exec.Options
	fc fault.Config
}

// replay returns u's per-event results, simulating u once per session:
// the first caller for its runKey owns it, and concurrent or later
// callers get the owner's results. The returned slice is therefore
// shared between callers and must be treated as read-only. Every call,
// hit or not, merges the unit's component counters into the session's
// metrics registry, so a snapshot is the same as if every call had
// simulated. With a trace recorder set, every call simulates live
// instead, so the trace keeps one span set per call. Failures follow
// singleFlight's rule: a panic reaches waiters as an error wrapping its
// sim.Aborted cause, and a later call simulates again.
//
// When the session has a checkpoint store, the owner consults it first:
// a valid cached record is returned byte-identically without simulating,
// and a live record is persisted on completion. Store I/O failures never
// fail the replay — a lost Put just means that unit re-executes on the
// next resume.
func (s *Session) replay(u unit) ([]exec.Result, error) {
	if s.cfg.Trace != nil {
		return s.simulate(u, s.cfg.Metrics)
	}
	key := s.runKey(u)
	rep, err := singleFlight(&s.mu, s.replays, key, func() (replayed, error) {
		return s.own(u, key)
	})
	if err != nil {
		return nil, err
	}
	s.cfg.Metrics.Merge(rep.Counters)
	return rep.Results, nil
}

// own produces replay unit u's record on behalf of every caller of key:
// a checkpoint hit, or else a live simulation, its counters collected
// into a registry of its own, persisted to the store.
func (s *Session) own(u unit, key string) (replayed, error) {
	st := s.cfg.Checkpoint
	if rep, ok := getCached(st, key); ok {
		return rep, nil
	}
	reg := metrics.NewRegistry()
	out, err := s.simulate(u, reg)
	if err != nil {
		return replayed{}, err
	}
	rep := replayed{Results: out, Counters: reg.Snapshot()}
	if st != nil {
		putCached(st, key, rep)
	}
	return rep, nil
}

// simulate plays u's GC log on a fresh platform wired with the session's
// trace recorder, cancellation context and replay watchdog, and publishes
// the platform's component counters into reg (nil: none). It is the one
// place experiments build a platform. Each call counts as one simulated
// unit in Replays. An unknown kind is returned as an error.
func (s *Session) simulate(u unit, reg *metrics.Registry) ([]exec.Result, error) {
	s.mu.Lock()
	s.simulated++
	s.mu.Unlock()
	wd := s.cfg.watchdog()
	opt := exec.Options{CharonConfig: u.hw.CharonConfig, Topology: u.hw.Topology,
		Trace: s.cfg.Trace, Ctx: s.cfg.Ctx, Watchdog: &wd}
	if u.fc.Enabled() {
		opt.Fault = &u.fc
	}
	p, err := exec.NewWithOptions(u.kind, u.r.Env, u.threads, opt)
	if err != nil {
		return nil, err
	}
	out := make([]exec.Result, 0, len(u.r.Col.Log))
	for _, ev := range u.r.Col.Log {
		out = append(out, p.Replay(ev, u.threads))
	}
	if ms, ok := p.(exec.MetricsSource); ok && reg.Enabled() {
		ms.CollectMetrics(reg)
	}
	return out, nil
}

// panicError is the error a memo owner's panic hands its waiters. A
// sim.Aborted keeps its cause, so errors.Is against sim.ErrNoProgress or
// context.Canceled works for a waiter as it does for the owner.
func panicError(p any) error {
	if ab, ok := p.(sim.Aborted); ok {
		return fmt.Errorf("experiments: aborted: %w", ab.Err)
	}
	return fmt.Errorf("experiments: panicked: %v", p)
}

// Totals aggregates replay results.
type Totals struct {
	Duration sim.Time
	PrimTime [gc.NumPrims]sim.Time
	Bytes    uint64
	HostBusy sim.Time
	UnitBusy sim.Time
	Local    float64 // weighted local-access ratio
	Energy   energy.Breakdown
}

// Sum aggregates results, weighting the local ratio by event duration and
// computing energy on the given platform kind.
func Sum(kind exec.Kind, results []exec.Result, ncores int) Totals {
	var t Totals
	var localW float64
	for _, r := range results {
		t.Duration += r.Duration
		for p := range r.PrimTime {
			t.PrimTime[p] += r.PrimTime[p]
		}
		t.Bytes += r.Traffic.Bytes()
		t.HostBusy += r.HostBusy
		t.UnitBusy += r.UnitBusy
		localW += r.LocalRatio * r.Duration.Seconds()
		t.Energy.Add(energy.ForGC(kind, r, ncores))
	}
	if t.Duration > 0 {
		t.Local = localW / t.Duration.Seconds()
	}
	return t
}

// BandwidthGBs is the average memory bandwidth over the GC time.
func (t Totals) BandwidthGBs() float64 {
	s := t.Duration.Seconds()
	if s == 0 {
		return 0
	}
	return float64(t.Bytes) / 1e9 / s
}

// replayTotals is the common record+replay+sum path.
func (s *Session) replayTotals(name string, kind exec.Kind, threads int) (Totals, error) {
	r, err := s.Record(name, s.cfg.Factor)
	if err != nil {
		return Totals{}, err
	}
	results, err := s.Replay(r, kind, threads)
	if err != nil {
		return Totals{}, err
	}
	return Sum(kind, results, threads), nil
}

// geomeanOf extracts a geomean across workloads from a per-workload map.
func geomeanOf(names []string, m map[string]float64) (float64, error) {
	var xs []float64
	for _, n := range names {
		if v, ok := m[n]; ok {
			xs = append(xs, v)
		}
	}
	return stats.Geomean(xs)
}
