package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// result collects one run's measurements. End-to-end metrics come from
// untraced passes only; per-layer metrics from the traced pass.
type result struct {
	attempted, failed int
	failures          []string // one line per failed operation, for stderr

	samples  map[string][]float64 // end-to-end samples, by metric name
	requests int                  // requests behind the request_* samples
	layer    map[string]float64   // per-layer values, by metric name
	notes    []string             // extra human-readable lines
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, layer: map[string]float64{}}
}

func (r *result) add(metric string, v float64) {
	r.samples[metric] = append(r.samples[metric], v)
}

// op counts one operation; a non-nil err counts it as failed (errored,
// refused, or failed its output check).
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects garbage, returns freed memory to the OS and restarts
// peak-RSS tracking, so each timed set-up or pass starts from the same
// heap state instead of inheriting the previous one's garbage.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// passes is how many passes a run makes: as many nominal-length passes
// as fit in the run, at least one. It depends only on the run length, so
// every run of a workload takes the same samples however fast the host.
func passes(o options, nominal time.Duration) int {
	if o.trace {
		return 1
	}
	return max(1, int(o.seconds/nominal))
}

// resetPeakRSS restarts the kernel's peak-RSS tracking (VmHWM), so the
// next peakRSSMB covers only what follows. Where the kernel refuses,
// peakRSSMB stays the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues reduces the samples to one value per end-to-end metric:
// the median over the run's samples (set-ups or passes).
func (r *result) endToEndValues() (map[string]metricValue, map[string]int) {
	vals := map[string]metricValue{}
	counts := map[string]int{}
	for _, m := range endToEnd {
		xs := r.samples[m.Name]
		vals[m.Name] = metricValue{median(xs), m.Unit}
		counts[m.Name] = len(xs)
	}
	return vals, counts
}

// addRequests records one pass's request latencies (ms): its p50 and p95
// become that pass's request_p50_ms and request_p95_ms samples, so one
// noisy pass cannot move the run's median.
func (r *result) addRequests(lat []float64) {
	r.requests += len(lat)
	r.add("request_p50_ms", median(lat))
	r.add("request_p95_ms", percentile(lat, 95))
}

// print writes the human-readable table, then the one-line JSON result
// a harness reads (always the last line of stdout).
func (r *result) print(w io.Writer, workload string, traced bool) error {
	var vals map[string]metricValue
	counts := map[string]int{}
	if traced {
		vals = map[string]metricValue{}
		for _, m := range perLayer() {
			vals[m.Name] = metricValue{r.layer[m.Name], m.Unit}
		}
	} else {
		vals, counts = r.endToEndValues()
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s pass)\n", workload, kind)
	for _, n := range names {
		v := vals[n]
		if traced {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, v.Value, v.Unit)
		} else {
			fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d\n", n, v.Value, v.Unit, counts[n])
		}
	}
	fail := 0.0
	if r.attempted > 0 {
		fail = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d\n", "fail_ratio", fail, "ratio", r.attempted)
	if !traced {
		fmt.Fprintf(w, "  request_* are medians over passes of each pass's percentile, from %d requests\n", r.requests)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, vals}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
