package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"charonsim/internal/client"
	"charonsim/internal/server"
)

// serveMix is one serve pass's seeded request sequence. The seed draws
// the order of the workload groups, the order of the sweeps and every
// client's sequence of repeat submissions. It never changes which jobs
// run, so every seed does the same simulation work.
type serveMix struct {
	cold   []server.JobSpec   // cold single-experiment jobs, in submission order
	sweeps []server.SweepSpec // each overlaps one earlier cold job and adds one new child
	hits   int                // repeat submissions per client, before and again after the reboot
	warmup int                // leading repeat submissions per client and phase left out of the hit samples
}

// Cold jobs come in one group per workload. Within a group each job
// replays a superset of the previous job's platforms, so it reuses the
// replay units the earlier jobs stored: fig14 needs DDR4 and Charon,
// fig13 adds HMC, fig12 adds Ideal, and each sweep's fig16 child adds
// Charon-CPUside.
var (
	serveWorkloads = []string{"ALS", "KM", "LR"}
	serveChain     = []string{"fig14", "fig13", "fig12"}
	serveSweepExp  = "fig16"
	// unitsPerJob is how many replay units a one-workload job of each
	// experiment consults: one per platform it replays on.
	unitsPerJob = map[string]int{"fig12": 4, "fig13": 3, "fig14": 2, "fig16": 3}
)

const (
	serveClients = 2
	// serveBoots is how many extra boots over an empty cache dir a run
	// times for setup_s, besides each pass's own: a boot takes under a
	// millisecond, so many samples steady the median.
	serveBoots = 25
	// serveNominal is a pass's length on a busy 2-core host.
	serveNominal      = 7 * time.Second
	servePollInterval = 5 * time.Millisecond
)

func newServeMix(seed int64, toy bool) serveMix {
	rng := rand.New(rand.NewSource(seed))
	wls, chain, extra := serveWorkloads, serveChain, serveSweepExp
	m := serveMix{hits: 1500, warmup: 50}
	if toy {
		wls, chain, extra = []string{"ALS"}, []string{"fig4a"}, "table4"
		m.hits, m.warmup = 40, 5
	}
	order := rng.Perm(len(wls))
	for _, i := range order {
		for _, e := range chain {
			m.cold = append(m.cold, server.JobSpec{Experiment: e, Workloads: []string{wls[i]}, Parallelism: -1})
		}
	}
	for _, i := range rng.Perm(len(wls)) {
		m.sweeps = append(m.sweeps, server.SweepSpec{
			Experiments: []string{chain[len(chain)-1], extra},
			Workloads:   []string{wls[i]}, Parallelism: -1})
	}
	return m
}

// serveWorkers sizes the server: one job per core, and every job runs
// its simulations serially, so simulation threads never exceed nproc.
func serveWorkers() int {
	if n := runtime.NumCPU(); n < serveClients {
		return n
	}
	return serveClients
}

// instance is one in-process charond over a cache directory, with its
// two clients.
type instance struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	clients []*client.Client
	trs     []*http.Transport
}

// boot starts a server over dir and waits until it answers /healthz.
func boot(dir string, seed int64) (*instance, error) {
	srv, err := server.New(server.Config{Workers: serveWorkers(), QueueDepth: 64, CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1)}
	go func() { in.served <- in.hs.Serve(ln) }()
	for i := 0; i < serveClients; i++ {
		// One connection per client: at most two client connections.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		c, err := client.New(client.Config{BaseURL: "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: tr, Timeout: time.Minute}, Seed: seed + int64(i)})
		if err != nil {
			in.stop()
			return nil, err
		}
		in.clients = append(in.clients, c)
		in.trs = append(in.trs, tr)
	}
	if err := in.clients[0].Healthy(context.Background()); err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// stop drains the server, shuts the listener down and waits for both.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := in.srv.Drain(ctx)
	serr := in.hs.Shutdown(ctx)
	if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	for _, tr := range in.trs {
		tr.CloseIdleConnections()
	}
	return errors.Join(derr, serr)
}

// serverCounters scrapes /v1/metrics into one name -> value map.
func (in *instance) serverCounters(ctx context.Context) (map[string]float64, error) {
	body, err := in.clients[0].ServerMetrics(ctx)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("/v1/metrics: %w", err)
	}
	out := doc.Counters
	for k, v := range doc.Gauges {
		out[k] = v
	}
	return out, nil
}

// servePass is what one pass measured.
type servePass struct {
	wall, cpu time.Duration
	boot      time.Duration

	cold, sweep, hit      []float64 // submit-to-result: cold and sweep in s, hit in ms
	submitCold, resultGet []float64 // ms
	polls, polled         int
	unitsNeeded           int
	reboot                time.Duration
	pre, post             map[string]float64 // /v1/metrics before the reboot and at the end (traced only)
	retries               float64
	ref                   map[string]string // job key -> cold result bytes
}

func jobKey(experiment, workloads string) string { return experiment + "/" + workloads }

// runPass runs the mix once on a fresh server over a fresh cache dir.
func runPass(o options, m serveMix, r *result, traced bool) (*servePass, error) {
	dir, err := cacheDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	p := &servePass{}
	t0 := time.Now()
	in, err := boot(dir, o.seed)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	p.boot = time.Since(t0)
	defer func() {
		if in != nil {
			in.stop()
		}
	}()

	c0, t0 := cpuTime(), time.Now()
	ref := map[string]string{}
	p.ref = ref
	c := in.clients[0]
	for _, spec := range m.cold {
		key := jobKey(spec.Experiment, strings.Join(spec.Workloads, ","))
		text, err := p.coldJob(ctx, c, spec)
		if err == nil && o.corrupt && len(ref) == 0 {
			text += "!"
		}
		r.op(err)
		if err == nil {
			ref[key] = text
			p.unitsNeeded += unitsPerJob[spec.Experiment]
		}
	}
	for _, spec := range m.sweeps {
		r.op(p.sweepJob(ctx, c, spec, ref))
	}
	p.hits(ctx, in, m, r, o.seed, 0)
	if traced {
		if p.pre, err = in.serverCounters(ctx); err != nil {
			return nil, err
		}
	}

	// Reboot over the same directory: hits now come from the disk result
	// cache, and the journal replays.
	tr := time.Now()
	err = in.stop()
	in = nil
	if err != nil {
		return nil, fmt.Errorf("drain before reboot: %w", err)
	}
	if in, err = boot(dir, o.seed+serveClients); err != nil {
		return nil, fmt.Errorf("reboot: %w", err)
	}
	p.reboot = time.Since(tr)
	p.hits(ctx, in, m, r, o.seed, 1)
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	if traced {
		if p.post, err = in.serverCounters(ctx); err != nil {
			return nil, err
		}
	}
	for _, cl := range in.clients {
		p.retries += cl.Metrics().Counter("client/retries")
	}
	err = in.stop()
	in = nil
	return p, err
}

// coldJob submits one job and polls it to its result, closed-loop.
func (p *servePass) coldJob(ctx context.Context, c *client.Client, spec server.JobSpec) (string, error) {
	t0 := time.Now()
	j, err := c.Submit(ctx, spec)
	if err != nil {
		return "", err
	}
	p.submitCold = append(p.submitCold, ms(time.Since(t0)))
	if j.Cached {
		return "", fmt.Errorf("cold job %s/%v was served from the cache", spec.Experiment, spec.Workloads)
	}
	for !j.Terminal() {
		time.Sleep(servePollInterval)
		if j, err = c.Job(ctx, j.ID); err != nil {
			return "", err
		}
		p.polls++
	}
	p.polled++
	if j.State != server.StateDone {
		return "", fmt.Errorf("cold job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	text, err := c.Result(ctx, j.ID)
	if err != nil {
		return "", err
	}
	p.cold = append(p.cold, time.Since(t0).Seconds())
	return text, nil
}

// sweepJob submits one sweep, polls it to its combined result, and
// checks that result against its children's results concatenated, and
// each known child against its cold result. New children become
// references for the repeat submissions.
func (p *servePass) sweepJob(ctx context.Context, c *client.Client, spec server.SweepSpec, ref map[string]string) error {
	t0 := time.Now()
	sw, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		return err
	}
	for !sw.Terminal() {
		time.Sleep(servePollInterval)
		if sw, err = c.SweepStatus(ctx, sw.ID); err != nil {
			return err
		}
		p.polls++
	}
	p.polled++
	if sw.State != server.StateDone {
		return fmt.Errorf("sweep %s ended %s", sw.ID, sw.State)
	}
	text, err := c.SweepResult(ctx, sw.ID)
	if err != nil {
		return err
	}
	p.sweep = append(p.sweep, time.Since(t0).Seconds())
	var cat strings.Builder
	for _, ch := range sw.Children {
		t, err := c.Result(ctx, ch.ID)
		if err != nil {
			return err
		}
		cat.WriteString(t)
		key := jobKey(ch.Experiment, ch.Workloads)
		if old, ok := ref[key]; !ok {
			ref[key] = t
			p.unitsNeeded += unitsPerJob[ch.Experiment]
		} else if old != t {
			return fmt.Errorf("sweep child %s: result differs from the cold job's", key)
		}
	}
	if cat.String() != text {
		return fmt.Errorf("sweep %s: result is not its children's results concatenated", sw.ID)
	}
	return nil
}

// hits runs both clients concurrently, each resubmitting completed jobs
// in its own seeded order and checking every result byte for byte.
func (p *servePass) hits(ctx context.Context, in *instance, m serveMix, r *result, seed int64, phase int) {
	ref := p.ref
	keys := sortedKeys(ref)
	if len(keys) == 0 {
		return // every cold job failed; nothing to resubmit
	}
	type clientOut struct {
		hit, get []float64
		errs     []error
	}
	outs := make([]clientOut, len(in.clients))
	var wg sync.WaitGroup
	for i, c := range in.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(10*phase+i)))
			out := &outs[i]
			for h := 0; h < m.hits; h++ {
				key := keys[rng.Intn(len(keys))]
				exp, wl, _ := strings.Cut(key, "/")
				t0 := time.Now()
				j, err := c.Submit(ctx, server.JobSpec{Experiment: exp, Workloads: strings.Split(wl, ","), Parallelism: -1})
				if err == nil && j.State != server.StateDone {
					err = fmt.Errorf("repeat submission of %s found it %s, not done", key, j.State)
				}
				var text string
				t1 := time.Now()
				if err == nil {
					text, err = c.Result(ctx, j.ID)
				}
				lat := time.Since(t0)
				if err == nil && text != ref[key] {
					err = fmt.Errorf("repeat submission of %s (phase %d): result differs from the cold result", key, phase)
				}
				out.errs = append(out.errs, err)
				if h >= m.warmup && err == nil {
					out.hit = append(out.hit, ms(lat))
					out.get = append(out.get, ms(time.Since(t1)))
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, out := range outs {
		for _, err := range out.errs {
			r.op(err)
		}
		p.hit = append(p.hit, out.hit...)
		p.resultGet = append(p.resultGet, out.get...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runServe(o options) (*result, error) {
	r := newResult()
	led, err := openLedger(o, "serve")
	if err != nil {
		return nil, err
	}
	m := newServeMix(o.seed, o.toy)
	for i := 0; i < serveBoots; i++ {
		settle()
		d, err := bootOnce(o)
		if err != nil {
			return nil, err
		}
		r.add("setup_s", d.Seconds())
	}
	var all []*servePass
	for pass := 0; pass < passes(o, serveNominal); pass++ {
		settle()
		p, err := runPass(o, m, r, false)
		if err != nil {
			return nil, err
		}
		all = append(all, p)
		r.add("peak_rss_mb", peakRSSMB())
		got := map[string]string{}
		for k, text := range p.ref {
			got[k] = digest(text)
		}
		checkDigests(r, sortedKeys(got), got, led.digestRefs(got), "cold result")
	}
	var cold, sweep, hit []float64
	var walls []string
	for _, p := range all {
		walls = append(walls, fmt.Sprintf("%.3f", p.wall.Seconds()))
		r.add("setup_s", p.boot.Seconds())
		r.add("wall_s", p.wall.Seconds())
		r.add("cpu_s", p.cpu.Seconds())
		lat := append([]float64(nil), p.hit...)
		for _, v := range append(append([]float64(nil), p.cold...), p.sweep...) {
			lat = append(lat, v*1e3)
		}
		r.addRequests(lat)
		cold, sweep, hit = append(cold, p.cold...), append(sweep, p.sweep...), append(hit, p.hit...)
	}
	r.note("pass walls (s): %s", strings.Join(walls, " "))
	r.note("cold_result_p50_s   %.6g s  n=%d", median(cold), len(cold))
	r.note("hit_result_p50_ms   %.6g ms n=%d", median(hit), len(hit))
	r.note("hit_result_p95_ms   %.6g ms n=%d", percentile(hit, 95), len(hit))
	r.note("sweep_result_p50_s  %.6g s  n=%d", median(sweep), len(sweep))
	L := r.layer
	L["serve.cold_result_p50_s"] = median(cold)
	L["serve.hit_result_p50_ms"] = median(hit)
	L["serve.hit_result_p95_ms"] = percentile(hit, 95)
	L["serve.sweep_result_p50_s"] = median(sweep)

	if o.trace {
		if err := tracedServe(o, m, r, all[0], led); err != nil {
			return nil, err
		}
	}
	r.add("ok_ratio", okRatio(r))
	return r, led.save()
}

// bootOnce times one boot over an empty cache dir, as a setup sample.
func bootOnce(o options) (time.Duration, error) {
	dir, err := cacheDir(o)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	in, err := boot(dir, o.seed)
	if err != nil {
		return 0, fmt.Errorf("boot: %w", err)
	}
	d := time.Since(t0)
	return d, in.stop()
}

// cacheDir makes a fresh, empty charond cache directory under o.out.
func cacheDir(o options) (string, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.out, "serve-")
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tracedServe runs the same mix again under a CPU profile, scraping the
// server's counters, and fills the serve layers' metrics.
func tracedServe(o options, m serveMix, r *result, untraced *servePass, led *ledger) error {
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := runPass(o, m, r, true)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	L := r.layer
	sum := func(name string) float64 { return p.pre[name] + p.post[name] }
	L["server.submit_cold_ms"] = median(p.submitCold)
	L["server.result_get_ms"] = median(p.resultGet)
	hits, misses := sum("server/cache_hits"), sum("server/cache_misses")
	if hits+misses > 0 {
		L["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	L["server.dedup_hits"] = sum("server/dedup_hits")
	L["server.sweep_child_dedup"] = sum("server/sweep_child_dedup")
	L["server.queue_high_water"] = max(p.pre["server/queue_high_water"], p.post["server/queue_high_water"])
	L["server.reboot_s"] = p.reboot.Seconds()
	if p.polled > 0 {
		L["client.polls_per_job"] = float64(p.polls) / float64(p.polled)
	}
	L["client.retries"] = p.retries
	// server/unit_store/hits and /misses always read 0 (jobs open their own
	// store), so unit reuse is derived from the store's growth instead.
	L["checkpoint.units_written"] = p.post["server/unit_store/entries"]
	if p.unitsNeeded > 0 {
		L["checkpoint.unit_share"] = 1 - L["checkpoint.units_written"]/float64(p.unitsNeeded)
	}
	L["checkpoint.result_entries"] = p.post["server/result_store/entries"]
	L["checkpoint.journal_entries"] = p.pre["server/journal/entries"]
	L["runtime.alloc_gb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e9
	L["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for k, v := range shares {
		L["cpu_share."+k] = v
	}
	L["trace.overhead_pct"] = 100 * (p.wall - untraced.wall).Seconds() / untraced.wall.Seconds()
	r.note("traced pass %.3f s, untraced pass %.3f s; %d units written of %d consulted",
		p.wall.Seconds(), untraced.wall.Seconds(), int(L["checkpoint.units_written"]), p.unitsNeeded)
	led.checkCounts(r)
	return nil
}
