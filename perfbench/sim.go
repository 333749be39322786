package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"charonsim"
	"charonsim/internal/exec"
	"charonsim/internal/experiments"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
	"charonsim/internal/workload"
)

// heapFactors are the heap overprovisioning points the seed picks from,
// inside the paper's 1.25-2x policy. Both cost the same to within ~1.5%
// on suite and fig12-six (1.4 costs +13% and 1.75 -9% on fig12), so the
// seed changes the inputs without widening the between-seed spread.
var heapFactors = []float64{1.5, 1.6}

// heapFactor maps a seed to its heap factor; the default seed 1 gives 1.5.
func heapFactor(seed int64) float64 {
	n := int64(len(heapFactors))
	return heapFactors[((seed-1)%n+n)%n]
}

// paperCharonSpeedup is the paper's Figure 12 geomean Charon speedup.
const paperCharonSpeedup = 3.29

// simWorkload is a library workload: experiments run through the public
// charonsim API on untraced passes, and through internal/experiments on
// one shared Session on the traced pass.
type simWorkload struct {
	name        string
	workloads   []string
	experiments []string // nil: charonsim.RunAll, every experiment
	parallelism int      // charonsim.Config.Parallelism (0 = GOMAXPROCS, -1 = serial)
	kinds       []exec.Kind
	nominal     time.Duration // a pass's length on a busy 2-core host
	// execSpans makes the traced pass also replay every recorded run on
	// every fig12 platform through internal/exec, timing each event.
	execSpans bool
}

func newSimWorkload(name string, toy bool) simWorkload {
	if name == "suite" {
		w := simWorkload{name: name, workloads: []string{"BS"}, kinds: exec.Kinds(), nominal: 30 * time.Second}
		if toy {
			w.workloads = []string{"ALS"}
			w.experiments = []string{"fig4a", "fig12", "table3"}
		}
		return w
	}
	w := simWorkload{name: name, workloads: charonsim.Workloads(), experiments: []string{"fig12"},
		parallelism: -1, kinds: experiments.Fig12Kinds, execSpans: true, nominal: 20 * time.Second}
	if toy {
		w.workloads = []string{"ALS"}
	}
	return w
}

func (w simWorkload) ids() []string {
	if w.experiments == nil {
		return charonsim.Experiments()
	}
	return w.experiments
}

func (w simWorkload) config(seed int64) charonsim.Config {
	return charonsim.Config{HeapFactor: heapFactor(seed), Workloads: w.workloads, Parallelism: w.parallelism}
}

// setup builds what a pass needs before its first event: a validated
// config, the experiment session, the workload generators and their
// heaps, and one simulated platform (cores, caches, DRAM or HMC, Charon
// units) of every kind the workload replays on.
func (w simWorkload) setup(seed int64) error {
	cfg := w.config(seed)
	if err := cfg.Validate(); err != nil {
		return err
	}
	experiments.NewSession(experiments.Config{Factor: cfg.HeapFactor, Workloads: w.workloads, Parallelism: w.parallelism})
	for _, name := range w.workloads {
		wl, err := workload.New(name)
		if err != nil {
			return err
		}
		col, _ := workload.Prepare(wl, cfg.HeapFactor)
		for _, k := range w.kinds {
			if _, err := exec.NewWithOptions(k, exec.EnvFor(col), 8, exec.Options{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// digest fingerprints one report.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// untraced runs one pass through the public API and returns each
// report's digest by experiment id.
func (w simWorkload) untraced(seed int64) (map[string]string, error) {
	cfg := w.config(seed)
	var reports []*charonsim.Report
	var err error
	if w.experiments == nil {
		reports, err = charonsim.RunAll(cfg)
	} else {
		for _, id := range w.experiments {
			var rep *charonsim.Report
			if rep, err = charonsim.Run(id, cfg); err != nil {
				break
			}
			reports = append(reports, rep)
		}
	}
	out := map[string]string{}
	for _, rep := range reports {
		out[rep.ID] = digest(rep.Text)
	}
	return out, err
}

// checkDigests counts one operation per expected report: missing, or
// different from the reference for the same seed, is a failure.
func checkDigests(r *result, ids []string, got, ref map[string]string, what string) {
	for _, id := range ids {
		switch d, ok := got[id]; {
		case !ok:
			r.op(fmt.Errorf("%s: no %s report", what, id))
		case ref[id] != "" && ref[id] != d:
			r.op(fmt.Errorf("%s: %s report digest %s differs from %s for the same seed", what, id, d, ref[id]))
		default:
			r.op(nil)
		}
	}
}

func runSim(w simWorkload, o options) (*result, error) {
	r := newResult()
	led, err := openLedger(o, w.name)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupRepeats; i++ {
		settle()
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		r.add("setup_s", time.Since(t0).Seconds())
	}

	var ref map[string]string // first pass's digests, for the traced pass
	var untracedWall time.Duration
	for pass := 0; pass < passes(o, w.nominal); pass++ {
		settle()
		c0, t0 := cpuTime(), time.Now()
		got, err := w.untraced(o.seed)
		wall := time.Since(t0)
		if err != nil {
			r.note("untraced pass %d: %v", pass, err)
		}
		if o.corrupt && len(got) > 0 {
			got[w.ids()[0]] = "corrupted"
		}
		if ref == nil {
			ref = got
		}
		checkDigests(r, w.ids(), got, led.digestRefs(got), "untraced pass")
		r.add("wall_s", wall.Seconds())
		r.add("cpu_s", (cpuTime() - c0).Seconds())
		r.addRequests([]float64{float64(wall) / float64(time.Millisecond)})
		r.add("peak_rss_mb", peakRSSMB())
		untracedWall = wall
	}
	if o.trace {
		if err := w.traced(o, ref, untracedWall, r, led); err != nil {
			return nil, err
		}
	}
	r.add("ok_ratio", okRatio(r))
	return r, led.save()
}

func okRatio(r *result) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// recordKey is one (workload, heap factor, collector mode) recording.
type recordKey struct {
	name   string
	factor float64
	mode   gc.Mode
}

// recordKeys lists every recording the workload's experiments ask the
// session for, so the traced pass can span them before the experiments
// run: the configured factor for all, Figure 2's factors for fig2, and
// the three collector modes for the collector study.
func (w simWorkload) recordKeys(factor float64) []recordKey {
	want := map[string]bool{}
	for _, id := range w.ids() {
		want[id] = true
	}
	seen := map[string]bool{}
	var keys []recordKey
	addKey := func(k recordKey) {
		if s := experiments.RecordKey(k.name, k.factor, k.mode); !seen[s] {
			seen[s] = true
			keys = append(keys, k)
		}
	}
	for _, name := range w.workloads {
		addKey(recordKey{name, factor, gc.ModePS})
		if want["fig2"] {
			for _, f := range experiments.Fig2Factors {
				addKey(recordKey{name, f, gc.ModePS})
			}
		}
		if want["collectors"] {
			for _, m := range experiments.StudyModes {
				addKey(recordKey{name, factor, m})
			}
		}
	}
	return keys
}

// traced runs the traced pass: the same experiments on one shared
// Session with the counter registry on, under a CPU profile, with a span
// around every call into the experiments and recording layers. The pass
// is timed from its first recording to its last report; the exec-layer
// replays that follow (fig12-six) are outside both the timing and the
// profile.
func (w simWorkload) traced(o options, ref map[string]string, untracedWall time.Duration, r *result, led *ledger) error {
	factor := heapFactor(o.seed)
	reg := metrics.NewRegistry()
	par := w.parallelism
	switch {
	case par == 0:
		par = runtime.GOMAXPROCS(0)
	case par < 0:
		par = 1
	}
	s := experiments.NewSession(experiments.Config{Factor: factor, Workloads: w.workloads, Parallelism: par, Metrics: reg})
	sp := newSpans()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t0 := time.Now()

	keys := w.recordKeys(factor)
	events := make([]int, len(keys))
	recErr := experiments.ForEach(par, len(keys), func(i int) error {
		k := keys[i]
		defer sp.start("gc.record")()
		run, err := s.RecordMode(k.name, k.factor, k.mode)
		if err == nil {
			events[i] = len(run.Col.Log)
		}
		return err
	})
	ids := w.ids()
	texts := make([]string, len(ids))
	var fig12 *experiments.Fig12Result
	expErr := recErr
	if expErr == nil {
		expErr = experiments.ForEach(par, len(ids), func(i int) error {
			defer sp.start("experiments." + ids[i])()
			text, res, err := runExperiment(s, ids[i])
			texts[i] = text
			if f, ok := res.(*experiments.Fig12Result); ok {
				fig12 = f
			}
			return err
		})
	}
	tracedWall := time.Since(t0)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if expErr != nil {
		r.note("traced pass: %v", expErr)
	}

	got := map[string]string{}
	for i, id := range ids {
		if texts[i] != "" {
			got[id] = digest(texts[i])
		}
	}
	checkDigests(r, ids, got, ref, "traced pass")
	snap := reg.Snapshot()
	r.op(checkConservation(snap))

	L := r.layer
	for k, v := range simCounters(snap) {
		L[k] = v
	}
	for _, id := range ids {
		L["experiments."+id+"_s"] = sp.total("experiments." + id).Seconds()
	}
	L["gc.record_s"] = sp.total("gc.record").Seconds()
	L["gc.recordings"] = float64(s.Executions())
	for _, n := range events {
		L["gc.events"] += float64(n)
	}
	if extra := s.Executions() - len(keys); extra != 0 {
		r.note("%d recordings ran outside the spanned set (gc.record_s misses them)", extra)
	}
	if fig12 != nil {
		x := fig12.Geomean[exec.KindCharon]
		L["experiments.charon_speedup_x"] = x
		L["experiments.paper_error_pct"] = 100 * (x - paperCharonSpeedup) / paperCharonSpeedup
	}
	L["runtime.alloc_gb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e9
	L["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for m, v := range shares {
		L["cpu_share."+m] = v
	}
	L["trace.overhead_pct"] = 100 * (tracedWall - untracedWall).Seconds() / untracedWall.Seconds()
	r.note("traced pass %.3f s, untraced pass %.3f s", tracedWall.Seconds(), untracedWall.Seconds())

	if w.execSpans && expErr == nil {
		if err := w.execReplays(s, factor, r, sp); err != nil {
			return err
		}
	}
	led.checkCounts(r)
	return sp.write(o, w.name)
}

// execReplays replays every recorded run on every fig12 platform through
// internal/exec, timing each GC event, to attribute replay time to
// platforms and to minor/major collections.
func (w simWorkload) execReplays(s *experiments.Session, factor float64, r *result, sp *spans) error {
	reg := metrics.NewRegistry()
	threads := s.Config().Threads
	var total time.Duration
	for _, name := range w.workloads {
		run, err := s.Record(name, factor)
		if err != nil {
			return err
		}
		for _, k := range experiments.Fig12Kinds {
			p, err := exec.NewWithOptions(k, run.Env, threads, exec.Options{})
			if err != nil {
				return err
			}
			for _, ev := range run.Col.Log {
				t0 := time.Now()
				p.Replay(ev, threads)
				d := time.Since(t0)
				sp.add("exec.replay."+platformPrefix(k), t0, d)
				sp.add("exec.replay."+ev.Kind.String(), t0, d)
				total += d
			}
			p.(exec.MetricsSource).CollectMetrics(reg)
		}
	}
	snap := reg.Snapshot()
	r.op(checkConservation(snap))
	for _, p := range fig12Platforms() {
		r.layer["exec.replay_s."+p] = sp.total("exec.replay." + p).Seconds()
	}
	r.layer["exec.replay_s.minor"] = sp.total("exec.replay.minor").Seconds()
	r.layer["exec.replay_s.major"] = sp.total("exec.replay.major").Seconds()
	if acc := simCounters(snap)["cpu.mem_accesses"]; acc > 0 {
		r.layer["exec.ns_per_mem_access"] = float64(total.Nanoseconds()) / acc
	}
	return nil
}

// runExperiment runs one experiment on the session and renders it the
// way charonsim's experiment table does, so its digest matches the
// public API's report. res is the typed result, when there is one.
func runExperiment(s *experiments.Session, id string) (text string, res any, err error) {
	render := func(r interface{ Render() string }, err error) (string, any, error) {
		if err != nil {
			return "", nil, err
		}
		return r.Render(), r, nil
	}
	switch id {
	case "fig2":
		return render(experiments.Fig2(s))
	case "fig4a":
		return render(experiments.Fig4(s, gc.Minor))
	case "fig4b":
		return render(experiments.Fig4(s, gc.Major))
	case "fig12":
		return render(experiments.Fig12(s))
	case "fig13":
		return render(experiments.Fig13(s))
	case "fig14":
		return render(experiments.Fig14(s))
	case "fig15":
		return render(experiments.Fig15(s))
	case "fig16":
		return render(experiments.Fig16(s))
	case "fig17":
		return render(experiments.Fig17(s))
	case "table1":
		return experiments.RenderTable1(), nil, nil
	case "table2":
		return experiments.RenderTable2(), nil, nil
	case "table3":
		return experiments.RenderTable3(), nil, nil
	case "table4":
		return experiments.RenderTable4(), nil, nil
	case "ablations":
		rs, err := experiments.Ablations(s)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderAblations(rs), rs, nil
	case "collectors":
		return render(experiments.CollectorStudy(s))
	case "thermal":
		return render(experiments.Thermal(s))
	case "faults":
		return render(experiments.FigFaultSweep(s))
	}
	return "", nil, fmt.Errorf("experiment %q is missing from the benchmark's runExperiment table", id)
}
