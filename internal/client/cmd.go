package client

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"charonsim/internal/cli"
	"charonsim/internal/fault/netfault"
	"charonsim/internal/server"
)

// Main executes the charonctl command with the given arguments
// (excluding the program name) and returns the process exit code:
//
//	0  success
//	1  any other failure (network, a refused request or unknown job id,
//	   server error, proxy crash)
//	2  usage error (unknown command, flag parse failure, bad config)
//	3  the job itself reached a failed or canceled terminal state, or
//	   its result was fetched before it finished — the network edge
//	   worked; the simulation did not
//
// charonctl is the network-edge counterpart of the charonsim CLI: it
// talks to a charond instance through the resilient client (retries,
// hedged polling, deadline propagation) and prints the server-rendered
// report verbatim, so bytes fetched over a faulty network are identical
// to a local charonsim run.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8080", "charond base URL")
		timeout   = fs.Duration("timeout", 0, "overall deadline for the command; propagated to the server as "+server.DeadlineHeader+" so it bounds job execution too (0 = none)")
		retries   = fs.Int("retries", 4, "retry budget per request beyond the first attempt (0 disables)")
		backoff   = fs.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt, plus seeded jitter; a server Retry-After hint on a retryable answer overrides it)")
		hedge     = fs.Duration("hedge", 0, "hedged-GET delay: issue a racing duplicate of an idempotent GET that has not answered after this long (0 disables)")
		seed      = fs.Int64("seed", 0, "seed for the deterministic backoff jitter")
		poll      = fs.Duration("poll", 250*time.Millisecond, "status poll interval while waiting (fixed; a Retry-After on a status answer does not stretch it)")
		raMax     = fs.Duration("retry-after-max", 30*time.Second, "cap on honored server Retry-After hints, either RFC form (0 = no cap)")
		noKeep    = fs.Bool("no-keepalive", false, "open a fresh connection per request; with a netfault proxy in the path every request then redraws the per-connection fault plan")
		metricsTo = fs.String("client-metrics", "", "after the command, write the client-side counter snapshot (retries, transport errors, hedges, Retry-After hints) as JSON to this path (\"-\" = stderr)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `usage: charonctl [flags] <command> [command flags]

Commands:
  submit   submit a job (flags mirror the job spec); -wait blocks for the report
  sweep    submit a parameter grid as one batch; -wait blocks for the combined report
  wait     wait for a job id to reach a terminal state
  result   fetch a finished job's rendered report (CLI byte-identical)
  cancel   cancel a job
  metrics  fetch the server's /v1/metrics document
  proxy    run the deterministic network-fault proxy (netfault) in front of a target

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	// The proxy subcommand stands alone: it is the fault side of the
	// chaos harness and needs no API client.
	if cmd == "proxy" {
		return proxyMain(rest, stdout, stderr)
	}

	retryBudget := *retries
	if retryBudget == 0 {
		retryBudget = -1
	}
	retryAfterMax := *raMax
	if retryAfterMax == 0 {
		retryAfterMax = -1 // Config: 0 means default, negative disables
	}
	var hc *http.Client
	if *noKeep {
		hc = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{DisableKeepAlives: true},
		}
	}
	c, err := New(Config{
		BaseURL:       *serverURL,
		HTTPClient:    hc,
		RetryBudget:   retryBudget,
		RetryBackoff:  *backoff,
		HedgeDelay:    *hedge,
		PollInterval:  *poll,
		RetryAfterMax: retryAfterMax,
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	code := runCommand(ctx, c, cmd, rest, stdout, stderr)
	if *metricsTo != "" {
		if err := writeClientMetrics(c, *metricsTo, stderr); err != nil {
			fmt.Fprintln(stderr, "charonctl: writing client metrics:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

func runCommand(ctx context.Context, c *Client, cmd string, args []string, stdout, stderr io.Writer) int {
	switch cmd {
	case "submit":
		return cmdSubmit(ctx, c, args, stdout, stderr)
	case "sweep":
		return cmdSweep(ctx, c, args, stdout, stderr)
	case "wait":
		return cmdWait(ctx, c, args, stdout, stderr)
	case "result":
		return cmdResult(ctx, c, args, stdout, stderr)
	case "cancel":
		return cmdCancel(ctx, c, args, stdout, stderr)
	case "metrics":
		return cmdMetrics(ctx, c, args, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "charonctl: unknown command %q (have submit, sweep, wait, result, cancel, metrics, proxy)\n", cmd)
		return 2
	}
}

func cmdSubmit(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment  = fs.String("experiment", "", "experiment id, or \"all\" (required)")
		threads     = fs.Int("threads", 0, "mutator thread count (0 = server default)")
		heapFactor  = fs.Float64("heap-factor", 0, "heap size factor (0 = server default)")
		workloads   = fs.String("workloads", "", "comma-separated workload subset (empty = all)")
		parallelism = fs.Int("parallelism", 0, "per-job simulation parallelism (0 = server default)")
		faultRate   = fs.Float64("fault-rate", 0, "simulated-hardware fault rate")
		faultSeed   = fs.Int64("fault-seed", 0, "simulated-hardware fault seed")
		runTimeout  = fs.Duration("run-timeout", 0, "per-unit run timeout (0 = server default)")
		wait        = fs.Bool("wait", false, "block until the job finishes and print its report to stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *experiment == "" {
		fmt.Fprintln(stderr, "charonctl submit: -experiment is required")
		return 2
	}
	spec := server.JobSpec{
		Experiment: *experiment,
		Threads:    *threads, HeapFactor: *heapFactor,
		Parallelism: *parallelism,
		FaultRate:   *faultRate, FaultSeed: *faultSeed,
	}
	if *workloads != "" {
		spec.Workloads = strings.Split(*workloads, ",")
	}
	if *runTimeout > 0 {
		spec.RunTimeout = runTimeout.String()
	}

	j, err := c.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl submit:", err)
		return 1
	}
	if !*wait {
		printStatus(stdout, j)
		return 0
	}
	text, err := c.WaitResult(ctx, j.ID)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl submit:", err)
		return jobExitCode(err)
	}
	io.WriteString(stdout, text)
	return 0
}

func cmdSweep(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonctl sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiments = fs.String("experiments", "", "comma-separated experiment ids, or \"all\" (required); one grid axis")
		workloads   = fs.String("workloads", "", "comma-separated workload codes fanned one child per code (empty = each child runs the experiment's default workload set)")
		heapFactors = fs.String("heap-factors", "", "comma-separated heap factors fanned one child per value (empty = server default)")
		threadList  = fs.String("threads", "", "comma-separated GC thread counts fanned one child per value (empty = server default)")
		parallelism = fs.Int("parallelism", 0, "per-job simulation parallelism, shared by every child (0 = server default)")
		faultRate   = fs.Float64("fault-rate", 0, "simulated-hardware fault rate, shared by every child")
		faultSeed   = fs.Int64("fault-seed", 0, "simulated-hardware fault seed, shared by every child")
		runTimeout  = fs.Duration("run-timeout", 0, "per-unit run timeout, shared by every child (0 = server default)")
		wait        = fs.Bool("wait", false, "block until every child finishes and print the combined report to stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *experiments == "" {
		fmt.Fprintln(stderr, "charonctl sweep: -experiments is required")
		return 2
	}
	spec := server.SweepSpec{
		Experiments: cli.CleanWorkloads(strings.Split(*experiments, ",")),
		Parallelism: *parallelism,
		FaultRate:   *faultRate, FaultSeed: *faultSeed,
	}
	if *workloads != "" {
		spec.Workloads = strings.Split(*workloads, ",")
	}
	if *heapFactors != "" {
		factors, err := cli.SplitFloats(*heapFactors)
		if err != nil {
			fmt.Fprintln(stderr, "charonctl sweep: -heap-factors:", err)
			return 2
		}
		spec.HeapFactors = factors
	}
	if *threadList != "" {
		threads, err := cli.SplitInts(*threadList)
		if err != nil {
			fmt.Fprintln(stderr, "charonctl sweep: -threads:", err)
			return 2
		}
		spec.Threads = threads
	}
	if *runTimeout > 0 {
		spec.RunTimeout = runTimeout.String()
	}

	sw, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl sweep:", err)
		return 1
	}
	if !*wait {
		printStatus(stdout, sw)
		return 0
	}
	text, err := c.SweepWaitResult(ctx, sw.ID)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl sweep:", err)
		return jobExitCode(err)
	}
	io.WriteString(stdout, text)
	return 0
}

func cmdWait(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	id, code := oneJobID("wait", args, stderr)
	if code >= 0 {
		return code
	}
	j, err := c.Wait(ctx, id)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl wait:", err)
		return 1
	}
	printStatus(stdout, j)
	if j.State != server.StateDone {
		return 3
	}
	return 0
}

func cmdResult(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	id, code := oneJobID("result", args, stderr)
	if code >= 0 {
		return code
	}
	text, err := c.Result(ctx, id)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl result:", err)
		return jobExitCode(err)
	}
	io.WriteString(stdout, text)
	return 0
}

func cmdCancel(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	id, code := oneJobID("cancel", args, stderr)
	if code >= 0 {
		return code
	}
	j, err := c.Cancel(ctx, id)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl cancel:", err)
		return 1
	}
	printStatus(stdout, j)
	return 0
}

func cmdMetrics(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "charonctl metrics: takes no arguments")
		return 2
	}
	body, err := c.ServerMetrics(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl metrics:", err)
		return 1
	}
	stdout.Write(body)
	return 0
}

// oneJobID parses the single positional job-id argument; a non-negative
// code means "return this immediately".
func oneJobID(cmd string, args []string, stderr io.Writer) (string, int) {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(stderr, "usage: charonctl %s <job-id>\n", cmd)
		return "", 2
	}
	return args[0], -1
}

// jobExitCode distinguishes "the job failed" (3) from every other
// failure (1). Only a job outcome is the former: a failed or canceled
// terminal state, the result endpoint's 500 (failed) or 410 (canceled),
// or a result fetched before the job finished. An unknown id, a refused
// request or a transport error is the latter.
func jobExitCode(err error) int {
	if errors.Is(err, ErrJobFailed) || errors.Is(err, ErrJobCanceled) || errors.Is(err, ErrNotDone) {
		return 3
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) && (apiErr.Status == http.StatusInternalServerError || apiErr.Status == http.StatusGone) {
		return 3
	}
	return 1
}

// printStatus writes a job or sweep status document as indented JSON.
func printStatus(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeClientMetrics(c *Client, path string, stderr io.Writer) error {
	if path == "-" {
		return c.MetricsSnapshot(stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.MetricsSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// proxyMain runs the netfault TCP proxy as a process: the chaos
// harness's network side. It prints one parseable stdout line with the
// bound address, serves until SIGINT/SIGTERM, and on shutdown dumps the
// per-connection fault log (one line per injected fault, in accept
// order) to -fault-log for determinism checks.
func proxyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonctl proxy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "address to listen on (port 0 picks a free port, printed on stdout)")
		target   = fs.String("target", "", "host:port to forward to (required)")
		rate     = fs.Float64("net-rate", 0, "master network-fault rate in [0, 1); per-class rates derive from it")
		seedF    = fs.Int64("net-seed", 0, "deterministic fault-pattern seed")
		delay    = fs.Duration("net-delay", 0, "injected one-way latency for delay-planned connections (0 = class default)")
		faultLog = fs.String("fault-log", "", "append per-connection fault events to this file as they are injected")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *target == "" {
		fmt.Fprintln(stderr, "charonctl proxy: -target is required")
		return 2
	}
	var logW io.Writer
	if *faultLog != "" {
		f, err := os.OpenFile(*faultLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "charonctl proxy:", err)
			return 2
		}
		defer f.Close()
		logW = f
	}
	p, err := netfault.New(*listen, *target, netfault.Config{
		Rate: *rate, Seed: *seedF, Delay: *delay,
	}, logW)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl proxy:", err)
		return 2
	}
	defer p.Close()
	fmt.Fprintf(stdout, "netfault proxy listening on %s -> %s\n", p.Addr(), *target)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	counts := p.Counts()
	fmt.Fprintf(stderr, "charonctl proxy: shutting down; injected=%d counts=%v\n", p.Injected(), counts)
	return 0
}
