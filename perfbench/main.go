// Command perfbench is charonsim's benchmark of record. It runs one
// workload (suite, fig12-six or serve) for a fixed time, checks every
// output, prints each metric by name with its unit and sample count, and
// ends with one JSON line: {"correct","attempted","failed","metrics"}.
// With -trace 1 it runs one untraced and one traced pass and reports the
// per-layer metrics instead. See README.md.
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // scratch directory: server state, ledgers, spans
	// toy shrinks every workload to seconds of work, for this package's
	// tests; corrupt flips one checked output, to test that a mismatch
	// is counted.
	toy, corrupt bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite, fig12-six or serve")
	seed := fs.Int64("seed", 1, "workload seed: the heap factor (suite, fig12-six) or the job mix (serve)")
	seconds := fs.Int("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "1: one untraced and one traced pass, reporting the per-layer metrics")
	out := fs.String("out", ".bench_build", "scratch directory for server state, ledgers and spans")
	spec := fs.Bool("spec", false, "print the BENCHMARK.json this program defines and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *spec {
		if err := writeSpec(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	r, err := runWorkload(*name, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	if err := r.print(stdout, *name, o.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(name string, o options) (*result, error) {
	switch name {
	case "suite", "fig12-six":
		return runSim(newSimWorkload(name, o.toy), o)
	case "serve":
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (have suite, fig12-six, serve)", name)
}
