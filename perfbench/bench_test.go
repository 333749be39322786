package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// toyRun runs one workload at toy size and decodes the JSON result line.
func toyRun(t *testing.T, name string, o options) (*result, map[string]metricValue) {
	t.Helper()
	o.toy = true
	if o.seconds == 0 {
		o.seconds = time.Second
	}
	if o.out == "" {
		o.out = t.TempDir()
	}
	r, err := runWorkload(name, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	if err := r.print(&out, name, o.trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", name, err, out.String())
	}
	if res.Attempted != r.attempted || res.Failed != r.failed || res.Correct != (r.failed == 0) {
		t.Errorf("%s: JSON result %+v disagrees with the run (%d attempted, %d failed)", name, res, r.attempted, r.failed)
	}
	return r, res.Metrics
}

func assertMetrics(t *testing.T, name string, defs []metricDef, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", name, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", name, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at toy size,
// untraced and traced, and checks that every metric BENCHMARK.json
// names is emitted with its unit, that every end-to-end value is
// nonzero, and that every check passed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range []string{"suite", "fig12-six", "serve"} {
		t.Run(name, func(t *testing.T) {
			r, got := toyRun(t, name, options{seed: 1})
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("untraced: %d of %d operations failed: %v", r.failed, r.attempted, r.failures)
			}
			assertMetrics(t, name, endToEnd, got)
			for _, d := range endToEnd {
				if got[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, got[d.Name].Value)
				}
			}
			r, got = toyRun(t, name, options{seed: 1, trace: true})
			if r.failed != 0 {
				t.Fatalf("traced: %d of %d operations failed: %v", r.failed, r.attempted, r.failures)
			}
			assertMetrics(t, name, perLayer(), got)
			var shares float64
			for _, m := range cpuShareModules {
				shares += got["cpu_share."+m].Value
			}
			if shares > 100.0001 || shares < 99.9999 {
				t.Errorf("cpu_share.* sum to %v%%, want 100", shares)
			}
		})
	}
}

// TestInjectedMismatchRaisesFailRatio corrupts one checked output and
// expects the run to count it as a failed operation.
func TestInjectedMismatchRaisesFailRatio(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace bool
	}{{"suite", true}, {"serve", false}} {
		t.Run(tc.name, func(t *testing.T) {
			r, got := toyRun(t, tc.name, options{seed: 1, trace: tc.trace, corrupt: true})
			if r.failed == 0 {
				t.Fatalf("a corrupted output went unnoticed (%d operations, none failed)", r.attempted)
			}
			if !tc.trace && got["ok_ratio"].Value >= 1 {
				t.Errorf("ok_ratio = %v with %d failures", got["ok_ratio"].Value, r.failed)
			}
		})
	}
}

// TestLedgerCatchesDigestChange runs the same seed twice in one scratch
// dir; the second run's corrupted report must differ from the first
// run's recorded digest.
func TestLedgerCatchesDigestChange(t *testing.T) {
	dir := t.TempDir()
	if r, _ := toyRun(t, "fig12-six", options{seed: 2, out: dir}); r.failed != 0 {
		t.Fatalf("first run failed: %v", r.failures)
	}
	if r, _ := toyRun(t, "fig12-six", options{seed: 2, out: dir, corrupt: true}); r.failed == 0 {
		t.Fatal("a report digest that changed between runs of the same seed went unnoticed")
	}
}

// TestTracedCountsRepeat runs two traced passes with the same seed and
// requires every exact work count to agree, and the ledger to accept
// the second pass.
func TestTracedCountsRepeat(t *testing.T) {
	dir := t.TempDir()
	r1, _ := toyRun(t, "fig12-six", options{seed: 1, trace: true, out: dir})
	r2, _ := toyRun(t, "fig12-six", options{seed: 1, trace: true, out: dir})
	if r2.failed != 0 {
		t.Fatalf("second traced pass failed: %v", r2.failures)
	}
	for _, name := range exactCounts {
		if r1.layer[name] != r2.layer[name] {
			t.Errorf("%s: %v then %v", name, r1.layer[name], r2.layer[name])
		}
	}
	if r1.layer["cpu.mem_accesses"] == 0 || r1.layer["gc.events"] == 0 {
		t.Errorf("work counts are empty: %v", r1.layer)
	}
}

// TestSpecMatchesBenchmarkJSON pins the committed BENCHMARK.json to the
// metrics and workloads this program emits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"charonsim/internal/cache.(*Cache).Access":          "cache",
		"charonsim/internal/fault/netfault.(*Proxy).accept": "fault",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"charonsim.RunAll":                        "charonsim",
		"net/http.(*conn).serve":                  "net/http",
		"main.main":                               "main",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if p := percentile(hundred, 95); p != 95 {
		t.Errorf("p95 = %v", p)
	}
	if heapFactor(1) != 1.5 {
		t.Errorf("the default seed must give heap factor 1.5, got %v", heapFactor(1))
	}
}
