package experiments

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"charonsim/internal/charon"
	"charonsim/internal/exec"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/hmc"
	"charonsim/internal/metrics"
)

// TestSessionConcurrentRecord hammers Record/RecordMode from 32 goroutines
// over a handful of keys and asserts single-flight semantics: every key is
// executed exactly once, every caller observes the same *Run, and no
// caller sees a partially built run. Run with -race to let the detector
// guard the session's internals.
func TestSessionConcurrentRecord(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}})

	var mu sync.Mutex
	execs := map[string]int{}
	s.SetRecordHook(func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
	})

	type call struct {
		factor float64
		mode   gc.Mode
	}
	// Two factors plus an explicit-mode alias of the first: three call
	// shapes but only two distinct keys (Record(f) == RecordMode(f, ModePS)).
	calls := []call{{1.5, gc.ModePS}, {1.25, gc.ModePS}}

	const goroutines = 32
	runs := make([]*Run, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer done.Done()
			start.Wait() // maximize overlap: all goroutines enter together
			c := calls[g%len(calls)]
			if g%3 == 0 {
				runs[g], errs[g] = s.RecordMode("BS", c.factor, c.mode)
			} else {
				runs[g], errs[g] = s.Record("BS", c.factor)
			}
		}()
	}
	start.Done()
	done.Wait()

	byKey := map[string]*Run{}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if runs[g] == nil || runs[g].Col == nil || len(runs[g].Col.Log) == 0 {
			t.Fatalf("goroutine %d: incomplete run %+v", g, runs[g])
		}
		key := RecordKey("BS", calls[g%len(calls)].factor, gc.ModePS)
		if prev, ok := byKey[key]; ok && prev != runs[g] {
			t.Fatalf("goroutine %d: got a different *Run for key %s", g, key)
		}
		byKey[key] = runs[g]
	}
	if len(byKey) != len(calls) {
		t.Fatalf("observed %d keys, want %d", len(byKey), len(calls))
	}
	for key, n := range execs {
		if n != 1 {
			t.Fatalf("key %s executed %d times, want exactly 1", key, n)
		}
	}
	if len(execs) != len(calls) {
		t.Fatalf("executed %d keys (%v), want %d", len(execs), execs, len(calls))
	}
	if got := s.Executions(); got != len(calls) {
		t.Fatalf("Executions() = %d, want %d", got, len(calls))
	}
}

// TestSessionConcurrentRecordError: a failing key is also single-flight —
// executed once, with every concurrent caller receiving the cached error.
func TestSessionConcurrentRecordError(t *testing.T) {
	s := NewSession(Config{})
	var mu sync.Mutex
	execs := 0
	s.SetRecordHook(func(string) {
		mu.Lock()
		execs++
		mu.Unlock()
	})

	const goroutines = 16
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			_, errs[g] = s.Record("no-such-workload", 1.5)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: unknown workload accepted", g)
		}
	}
	if execs != 1 {
		t.Fatalf("failing key executed %d times, want exactly 1", execs)
	}
	// And the error stays cached for later callers.
	if _, err := s.Record("no-such-workload", 1.5); err == nil {
		t.Fatal("cached error lost")
	}
	if execs != 1 {
		t.Fatalf("cache hit re-executed the recording (%d executions)", execs)
	}
}

// TestConfigWithDefaults covers zero-value and explicit fields, including
// the Parallelism field the concurrent harness introduced.
func TestConfigWithDefaults(t *testing.T) {
	allSix := []string{"BS", "KM", "LR", "CC", "PR", "ALS"}
	tests := []struct {
		name string
		in   Config
		want Config
	}{
		{
			name: "all zero",
			in:   Config{},
			want: Config{Threads: 8, Factor: 1.5, Workloads: allSix, Parallelism: runtime.GOMAXPROCS(0)},
		},
		{
			name: "explicit fields survive",
			in:   Config{Threads: 4, Factor: 2.0, Workloads: []string{"CC"}, Parallelism: 3},
			want: Config{Threads: 4, Factor: 2.0, Workloads: []string{"CC"}, Parallelism: 3},
		},
		{
			name: "negative parallelism clamps to serial",
			in:   Config{Parallelism: -7},
			want: Config{Threads: 8, Factor: 1.5, Workloads: allSix, Parallelism: 1},
		},
		{
			name: "parallelism one stays one",
			in:   Config{Parallelism: 1},
			want: Config{Threads: 8, Factor: 1.5, Workloads: allSix, Parallelism: 1},
		},
		{
			name: "threads and factor default independently",
			in:   Config{Threads: 16},
			want: Config{Threads: 16, Factor: 1.5, Workloads: allSix, Parallelism: runtime.GOMAXPROCS(0)},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.withDefaults()
			if got.Threads != tc.want.Threads || got.Factor != tc.want.Factor ||
				got.Parallelism != tc.want.Parallelism {
				t.Fatalf("withDefaults() = %+v, want %+v", got, tc.want)
			}
			if len(got.Workloads) != len(tc.want.Workloads) {
				t.Fatalf("workloads %v, want %v", got.Workloads, tc.want.Workloads)
			}
			for i := range got.Workloads {
				if got.Workloads[i] != tc.want.Workloads[i] {
					t.Fatalf("workloads %v, want %v", got.Workloads, tc.want.Workloads)
				}
			}
		})
	}
}

// TestForEach covers the worker pool: full index coverage, bounded
// concurrency, serial fallback, and lowest-index error selection.
func TestForEach(t *testing.T) {
	t.Run("covers all indices at any parallelism", func(t *testing.T) {
		for _, par := range []int{-1, 0, 1, 2, 7, 64} {
			var mu sync.Mutex
			seen := map[int]int{}
			err := forEach(par, 20, func(i int) error {
				mu.Lock()
				seen[i]++
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != 20 {
				t.Fatalf("par=%d: visited %d indices", par, len(seen))
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("par=%d: index %d visited %d times", par, i, n)
				}
			}
		}
	})
	t.Run("empty and negative n", func(t *testing.T) {
		for _, n := range []int{0, -3} {
			if err := forEach(8, n, func(int) error { t.Fatal("called"); return nil }); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("lowest-index error wins", func(t *testing.T) {
		e3, e7 := &indexError{3}, &indexError{7}
		for _, par := range []int{1, 4} {
			err := forEach(par, 10, func(i int) error {
				switch i {
				case 3:
					return e3
				case 7:
					return e7
				}
				return nil
			})
			if err != e3 {
				t.Fatalf("par=%d: got %v, want error from index 3", par, err)
			}
		}
	})
	t.Run("serial stops at first error", func(t *testing.T) {
		ran := 0
		err := forEach(1, 10, func(i int) error {
			ran++
			if i == 2 {
				return &indexError{2}
			}
			return nil
		})
		if err == nil || ran != 3 {
			t.Fatalf("err=%v ran=%d, want error after 3 calls", err, ran)
		}
	})
	t.Run("grid is row-major", func(t *testing.T) {
		var mu sync.Mutex
		var cells [][2]int
		if err := (Config{Parallelism: 4}).forEachGrid(3, 2, func(i, j int) error {
			mu.Lock()
			cells = append(cells, [2]int{i, j})
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(cells) != 6 {
			t.Fatalf("visited %d cells", len(cells))
		}
		seen := map[[2]int]bool{}
		for _, c := range cells {
			if c[0] < 0 || c[0] > 2 || c[1] < 0 || c[1] > 1 || seen[c] {
				t.Fatalf("bad or duplicate cell %v", c)
			}
			seen[c] = true
		}
	})
}

type indexError struct{ i int }

func (e *indexError) Error() string { return "error at index" }

// TestParallelFigureMatchesSerial renders Figure 12 from a serial session
// and a parallelism-8 session and requires byte-identical output — the
// in-package determinism gate (the full-suite one lives in the root
// package). Under -race this doubles as a race test of the fan-out path.
func TestParallelFigureMatchesSerial(t *testing.T) {
	serial := NewSession(Config{Workloads: []string{"BS"}, Parallelism: -1})
	rs, err := Fig12(serial)
	if err != nil {
		t.Fatal(err)
	}
	par := NewSession(Config{Workloads: []string{"BS"}, Parallelism: 8})
	rp, err := Fig12(par)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.Render(), rs.Render(); got != want {
		t.Fatalf("parallel render diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if !strings.Contains(rs.Render(), "BS") {
		t.Fatal("render missing workload row")
	}
}

// shortRun returns BS's recording cut to its first n GC events: a real
// replay unit that simulates in a fraction of the full log's time, so the
// replay-memo tests stay cheap under -race.
func shortRun(t *testing.T, s *Session, n int) *Run {
	t.Helper()
	r, err := s.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Col.Log) < n {
		t.Fatalf("BS recorded %d GC events, want at least %d", len(r.Col.Log), n)
	}
	short := *r
	short.Col = &gc.Collector{Log: r.Col.Log[:n]}
	return &short
}

// TestSessionConcurrentReplay: eight goroutines asking for one replay unit
// simulate it exactly once, every caller gets the same results, and every
// caller merges the unit's one counter record into the session registry.
func TestSessionConcurrentReplay(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSession(Config{Workloads: []string{"BS"}, Metrics: reg, Checkpoint: newStore(t)})
	r := shortRun(t, s, 2)

	const goroutines = 8
	outs := make([][]exec.Result, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer done.Done()
			start.Wait()
			outs[g], errs[g] = s.Replay(r, exec.KindCharon, 8)
		}()
	}
	start.Done()
	done.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if len(outs[g]) != len(r.Col.Log) {
			t.Fatalf("goroutine %d: %d results for %d GC events", g, len(outs[g]), len(r.Col.Log))
		}
		for i := range outs[g] {
			if outs[g][i] != outs[0][i] {
				t.Fatalf("goroutine %d, event %d: %+v, want %+v", g, i, outs[g][i], outs[0][i])
			}
		}
	}
	if got := s.Replays(); got != 1 {
		t.Fatalf("Replays() = %d, want exactly 1", got)
	}
	// A later call is a hit, too.
	if _, err := s.Replay(r, exec.KindCharon, 8); err != nil {
		t.Fatal(err)
	}
	if got := s.Replays(); got != 1 {
		t.Fatalf("Replays() after a repeat = %d, want 1", got)
	}
	if got, want := reg.Counter("charon/gc_events"), float64((goroutines+1)*len(r.Col.Log)); got != want {
		t.Fatalf("charon/gc_events = %v after %d calls, want %v", got, goroutines+1, want)
	}
}

// TestSessionReplayKeysSeparateUnits: units that differ only in platform
// kind, hardware, thread count, heap factor, collector mode or fault seed
// are different units — each simulates once and none is served another's
// results.
func TestSessionReplayKeysSeparateUnits(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}})
	r := shortRun(t, s, 1)
	factor, mode := *r, *r
	factor.Factor = 2.0
	mode.Mode = gc.ModeCMS
	faulted := fault.Config{Rate: 0.05, Seed: 1}
	reseeded := faulted
	reseeded.Seed = 2
	mai16 := charon.DefaultConfig()
	mai16.MAIEntries = 16
	units := []struct {
		label   string
		r       *Run
		kind    exec.Kind
		threads int
		hw      exec.Options
		fc      fault.Config
	}{
		{"base", r, exec.KindCharon, 8, exec.Options{}, fault.Config{}},
		{"kind", r, exec.KindHMC, 8, exec.Options{}, fault.Config{}},
		{"threads", r, exec.KindCharon, 4, exec.Options{}, fault.Config{}},
		{"factor", &factor, exec.KindCharon, 8, exec.Options{}, fault.Config{}},
		{"mode", &mode, exec.KindCharon, 8, exec.Options{}, fault.Config{}},
		{"fault seed 1", r, exec.KindCharon, 8, exec.Options{}, faulted},
		{"fault seed 2", r, exec.KindCharon, 8, exec.Options{}, reseeded},
		{"MAI=16", r, exec.KindCharon, 8, exec.Options{CharonConfig: &mai16}, fault.Config{}},
		{"chain", r, exec.KindCharon, 8, exec.Options{Topology: hmc.Chain}, fault.Config{}},
	}
	replay := func(i int) ([]exec.Result, error) {
		u := units[i]
		return s.replay(unit{r: u.r, kind: u.kind, threads: u.threads, hw: u.hw, fc: u.fc})
	}
	outs := map[string][]exec.Result{}
	for i, u := range units {
		out, err := replay(i)
		if err != nil {
			t.Fatalf("%s: %v", u.label, err)
		}
		if got := s.Replays(); got != i+1 {
			t.Fatalf("%s: Replays() = %d, want %d — merged with an earlier unit", u.label, got, i+1)
		}
		outs[u.label] = out
	}
	// Units whose simulations differ must not share results either.
	for _, label := range []string{"kind", "threads", "fault seed 1", "MAI=16", "chain"} {
		if outs[label][0] == outs["base"][0] {
			t.Fatalf("%s unit returned the base unit's results", label)
		}
	}
	if outs["fault seed 1"][0] == outs["fault seed 2"][0] {
		t.Fatal("fault seeds 1 and 2 returned identical results")
	}
	// Every unit is memoized under its own key.
	for i := range units {
		if _, err := replay(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Replays(); got != len(units) {
		t.Fatalf("repeats re-simulated: Replays() = %d, want %d", got, len(units))
	}
}

// TestSessionReplayAbortReleasesWaiters: when the session context is
// cancelled while a unit's owner simulates, every caller blocked on that
// unit returns promptly with an error wrapping context.Canceled — never a
// hang, never nil results with a nil error.
func TestSessionReplayAbortReleasesWaiters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewSession(Config{Workloads: []string{"BS"}, Ctx: ctx})
	r, err := s.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	replay := func() (out []exec.Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = panicError(p) // the owner re-raises its abort
			}
		}()
		return s.Replay(r, exec.KindDDR4, 8)
	}

	const waiters = 7
	type outcome struct {
		out []exec.Result
		err error
	}
	results := make(chan outcome, waiters+1)
	go func() {
		out, err := replay()
		results <- outcome{out, err}
	}()
	for s.Replays() == 0 { // the owner has claimed the unit
		time.Sleep(time.Millisecond)
	}
	for g := 0; g < waiters; g++ {
		go func() {
			out, err := replay()
			results <- outcome{out, err}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	cancel()

	timeout := time.After(60 * time.Second)
	for i := 0; i < waiters+1; i++ {
		select {
		case o := <-results:
			if o.err == nil {
				t.Fatalf("caller got %d results and no error after cancellation", len(o.out))
			}
			if !errors.Is(o.err, context.Canceled) {
				t.Fatalf("error %v does not unwrap to context.Canceled", o.err)
			}
		case <-timeout:
			t.Fatalf("%d of %d callers still blocked after cancellation", waiters+1-i, waiters+1)
		}
	}
}

// TestSessionReplayMetricsCountEveryUse: replaying one unit twice in a
// session publishes exactly twice the counters of one replay — the second
// call is a memo hit, yet it counts the simulation it stands for.
func TestSessionReplayMetricsCountEveryUse(t *testing.T) {
	snapshot := func(times int) metrics.Snapshot {
		reg := metrics.NewRegistry()
		s := NewSession(Config{Workloads: []string{"BS"}, Metrics: reg})
		r := shortRun(t, s, 2)
		for i := 0; i < times; i++ {
			if _, err := s.Replay(r, exec.KindCharon, 8); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Replays(); got != 1 {
			t.Fatalf("Replays() = %d, want 1", got)
		}
		return reg.Snapshot()
	}
	once, twice := snapshot(1), snapshot(2)
	if len(once.Counters) == 0 {
		t.Fatal("a replay published no counters")
	}
	if len(twice.Counters) != len(once.Counters) || len(twice.Gauges) != len(once.Gauges) ||
		len(twice.Dists) != len(once.Dists) {
		t.Fatalf("metric sets differ: %d/%d/%d vs %d/%d/%d counters/gauges/distributions",
			len(twice.Counters), len(twice.Gauges), len(twice.Dists),
			len(once.Counters), len(once.Gauges), len(once.Dists))
	}
	for name, v := range once.Counters {
		if got := twice.Counters[name]; got != 2*v {
			t.Errorf("counter %s = %v after two replays, want 2 × %v", name, got, v)
		}
	}
	for name, v := range once.Gauges {
		if got := twice.Gauges[name]; got != v {
			t.Errorf("high-water gauge %s = %v after two replays, want %v", name, got, v)
		}
	}
	for name, d := range once.Dists {
		want := metrics.Dist{Count: 2 * d.Count, Sum: 2 * d.Sum, Min: d.Min, Max: d.Max}
		if got := twice.Dists[name]; got != want {
			t.Errorf("distribution %s = %+v after two replays, want %+v", name, got, want)
		}
	}
}

// TestSessionRecordPanicReleasesWaiters: when a recording's owner panics,
// every caller blocked on that key returns an error promptly — never a
// hang — and the panic is not memoized: a later Record runs again.
func TestSessionRecordPanicReleasesWaiters(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}})
	var mu sync.Mutex
	calls, armed := 0, true
	claimed, release := make(chan struct{}), make(chan struct{})
	s.SetRecordHook(func(string) {
		mu.Lock()
		calls++
		first, trip := calls == 1, armed
		mu.Unlock()
		if first { // hold the key until the waiters queue behind it
			close(claimed)
			<-release
		}
		if trip {
			panic("recording hook tripped")
		}
	})
	record := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = panicError(p) // the owner re-raises its panic
			}
		}()
		_, err = s.Record("BS", 1.5)
		return err
	}

	const waiters = 7
	errs := make(chan error, waiters+1)
	go func() { errs <- record() }()
	<-claimed
	for g := 0; g < waiters; g++ {
		go func() { errs <- record() }()
	}
	// Give the waiters time to block on the owner's slot. The outcome does
	// not depend on it: a late caller becomes an owner and panics too.
	time.Sleep(20 * time.Millisecond)
	close(release)

	timeout := time.After(30 * time.Second)
	for i := 0; i < waiters+1; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "recording hook tripped") {
				t.Fatalf("caller got error %v, want the owner's panic", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d callers still blocked after the owner panicked", waiters+1-i, waiters+1)
		}
	}

	mu.Lock()
	armed = false
	before := calls
	mu.Unlock()
	r, err := s.Record("BS", 1.5)
	if err != nil || r == nil || len(r.Col.Log) == 0 {
		t.Fatalf("Record after the panic: run %v, error %v", r, err)
	}
	if calls != before+1 {
		t.Fatalf("Record after the panic executed %d recordings, want 1 — the panic was memoized", calls-before)
	}
}

// shortSession is a BS-only session whose BS recording is cut to its
// first n GC events (see shortRun), so whole experiments replay cheaply.
func shortSession(t *testing.T, cfg Config, n int) *Session {
	t.Helper()
	cfg.Workloads = []string{"BS"}
	s := NewSession(cfg)
	r := shortRun(t, s, n)
	done := make(chan struct{})
	close(done)
	s.runs[RecordKey(r.Name, r.Factor, r.Mode)] = &flight[*Run]{done: done, val: r}
	return s
}

// TestAblationDefaultPointsReuseCharonUnit: an ablation point at the
// Table 2 configuration is the plain Charon unit — a memo hit, not a new
// simulation — so each sweep simulates only its non-default points.
func TestAblationDefaultPointsReuseCharonUnit(t *testing.T) {
	s := shortSession(t, Config{}, 2)
	r, err := s.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replay(r, exec.KindCharon, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := AblateMAI(s); err != nil {
		t.Fatal(err)
	}
	if _, err := AblateTopology(s); err != nil {
		t.Fatal(err)
	}
	// The DDR4 baseline, MAI=4/8/16/64 and chain; MAI=32 and star are hits.
	if got := s.Replays(); got != 1+6 {
		t.Fatalf("Replays() = %d after MAI and topology sweeps, want %d", got, 1+6)
	}
	if _, err := Ablations(s); err != nil {
		t.Fatal(err)
	}
	// grain=64/128B, bmcache=1/4/32KB and copy-units=1/4; every paper point
	// and every sweep already run is a hit.
	if got := s.Replays(); got != 1+6+7 {
		t.Fatalf("Replays() = %d after all sweeps, want %d", got, 1+6+7)
	}
}

// TestAblationFaultContract: with Config.Fault set, ablation points are
// faulted like every other replay — the star point's speedup is the
// faulted DDR4 total over the faulted Charon total of the same session.
func TestAblationFaultContract(t *testing.T) {
	fc := fault.Config{Rate: 0.05, Seed: 1}
	s := shortSession(t, Config{Fault: fc}, 2)
	res, err := AblateTopology(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	total := func(kind exec.Kind, fc fault.Config) float64 {
		out, err := s.ReplayFault(r, kind, 8, fc)
		if err != nil {
			t.Fatal(err)
		}
		return Sum(kind, out, 8).Duration.Seconds()
	}
	faulted := total(exec.KindCharon, fc)
	if clean := total(exec.KindCharon, fault.Config{}); clean == faulted {
		t.Fatal("the fault config does not change the Charon replay; the test proves nothing")
	}
	want := total(exec.KindDDR4, fc) / faulted
	if got := res.Speedup[res.Default]; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("star speedup %v, want faulted DDR4 / faulted Charon = %v", got, want)
	}
}
