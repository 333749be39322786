// Package client is the typed Go client for the charond job API — the
// resilient network edge in front of internal/server. It wraps every
// exchange in the discipline a flaky network demands:
//
//   - Bounded exponential-backoff retries on the server's own schedule
//     (server.BackoffDelay, keyed by seed and request), honoring server
//     Retry-After hints (the 429 queue-full, 503 shed/drain, and 202 poll
//     paths all send one).
//   - Safe-to-retry submissions: job IDs are canonical content keys and
//     the server deduplicates single-flight, so a duplicated POST — a
//     retransmit after an ambiguous reset, or a hedge — lands on the
//     same job and never double-runs work.
//   - Optional hedged GETs: when HedgeDelay elapses without a response,
//     a second identical request races the first; first complete answer
//     wins, the loser is canceled.
//   - Client-side deadlines propagated over the wire: a context deadline
//     becomes an X-Charon-Deadline header, and the server derives the
//     job's execution deadline from it — the caller's patience bounds
//     the work, end to end.
//
// Every retry, hedge, and honored hint lands in a metrics.Registry
// (Metrics()), so chaos harnesses can reconcile client-side counters
// against the faults a netfault proxy injected.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"charonsim/internal/metrics"
	"charonsim/internal/server"
)

// Config configures a Client. The zero value (plus BaseURL) is a sane
// resilient client; every knob follows the repo convention that 0 means
// "default" and negative means "disable".
type Config struct {
	// BaseURL is the charond root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = a client with a 30s
	// per-attempt timeout). Per-request deadlines still come from the
	// caller's context.
	HTTPClient *http.Client
	// RetryBudget bounds retries per logical request beyond the first
	// attempt (default 4; negative disables retries).
	RetryBudget int
	// RetryBackoff is the initial retry delay (default 100ms); it doubles
	// per attempt up to 64x, plus up to +50% deterministic jitter derived
	// from Seed and the request. A server Retry-After hint on a retryable
	// answer overrides the computed delay.
	RetryBackoff time.Duration
	// HedgeDelay, when positive, arms hedged GETs: if a response has not
	// arrived after this long, a second identical request is issued and
	// the first complete answer wins. Only idempotent GETs hedge;
	// submissions rely on retries plus server-side dedup instead.
	HedgeDelay time.Duration
	// PollInterval paces Wait's status polling (default 250ms). It is
	// the only pacing: a Retry-After on a status answer does not stretch
	// it, so sub-second jobs are not held to the server's 1s hint floor.
	PollInterval time.Duration
	// RetryAfterMax caps how long a server Retry-After hint is honored
	// (default 30s; negative disables the cap). A server quoting an hour
	// — by bug or hostility — must not stall a command past its own
	// deadline on one hint.
	RetryAfterMax time.Duration
	// Seed selects the deterministic backoff jitter, exactly like the
	// fault layer's seeds: the same seed reproduces the same schedule for
	// the same request, different seeds desynchronize.
	Seed int64
	// Log receives request-level logs (nil = discard).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 4
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.RetryAfterMax == 0 {
		c.RetryAfterMax = 30 * time.Second
	}
	if c.RetryAfterMax < 0 {
		c.RetryAfterMax = 0 // 0 after defaulting = uncapped
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// APIError is a complete, non-2xx HTTP answer from the server: the host
// is alive and said no. Status carries the code; Message the decoded
// {"error": ...} body when present.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("charond: HTTP %d", e.Status)
	}
	return fmt.Sprintf("charond: HTTP %d: %s", e.Status, e.Message)
}

// ErrNotDone reports that a job's result was requested before the job
// reached a terminal state (the server's 202 poll answer).
var ErrNotDone = &APIError{Status: http.StatusAccepted, Message: "job is not done yet"}

// ErrJobFailed and ErrJobCanceled mark WaitResult errors where the
// network edge worked and the job itself ended badly — callers (and
// charonctl's exit codes) distinguish them from transport failures.
var (
	ErrJobFailed   = errors.New("job reached a failed terminal state")
	ErrJobCanceled = errors.New("job was canceled")
)

// Job is the client-side view of a tracked job (the server's job JSON).
type Job struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Experiment string `json:"experiment"`
	Cached     bool   `json:"cached"`
	Created    string `json:"created,omitempty"`
	Started    string `json:"started,omitempty"`
	Finished   string `json:"finished,omitempty"`
	Deadline   string `json:"deadline,omitempty"`
	Error      string `json:"error,omitempty"`
	Recovered  int    `json:"recovered,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j Job) Terminal() bool { return terminal(j.State) }

func (j Job) head() (id, state string) { return j.ID, j.State }
func (j Job) failure() string          { return j.Error }

func terminal(state string) bool {
	return state == server.StateDone || state == server.StateFailed || state == server.StateCanceled
}

// Client is a resilient charond API client. Create with New; safe for
// concurrent use.
type Client struct {
	cfg  Config
	base *url.URL
	hc   *http.Client
	log  *slog.Logger
	reg  *metrics.Registry
}

// New builds a client for the charond instance at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)://host[:port]", cfg.BaseURL)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	return &Client{
		cfg:  cfg,
		base: u,
		hc:   cfg.HTTPClient,
		log:  cfg.Log,
		reg:  metrics.NewRegistry(),
	}, nil
}

// Metrics exposes the client's counter registry: retries, transport
// errors, hedges, Retry-After hints honored. Chaos gates reconcile it
// against the proxy's injected-fault log.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// response is one complete HTTP exchange.
type response struct {
	status int
	header http.Header
	body   []byte
}

// asError maps a non-2xx response to an *APIError (nil for 2xx).
func (r *response) asError() error {
	if r.status >= 200 && r.status < 300 {
		return nil
	}
	var msg struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(r.body, &msg)
	return &APIError{Status: r.status, Message: msg.Error}
}

// retryableStatus classifies the statuses worth another attempt: the
// queue-full 429, the shed/drain 503, and gateway-shaped 502/504. All of
// them may carry a Retry-After hint, which do() honors.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one logical request through the retry/hedge stack. body is
// resent verbatim on every attempt; hedge must only be true for
// idempotent requests.
func (c *Client) do(ctx context.Context, method, path string, body []byte, hedge bool) (*response, error) {
	c.reg.AddUint("client/requests", 1)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return nil, err
		}

		resp, err := c.exchange(ctx, method, path, body, hedge)
		if err == nil {
			if rerr := resp.asError(); rerr != nil && retryableStatus(resp.status) && attempt < c.cfg.RetryBudget {
				lastErr = rerr
				c.reg.AddUint("client/retries", 1)
				if serr := c.sleep(ctx, c.backoff(method, path, attempt, resp.header)); serr != nil {
					return nil, lastErr
				}
				continue
			}
			return resp, nil // success, or a terminal status the caller interprets
		}

		lastErr = err
		c.reg.AddUint("client/net_errors", 1)
		c.log.Debug("request failed", "method", method, "path", path, "attempt", attempt, "err", err)
		if attempt >= c.cfg.RetryBudget || ctx.Err() != nil {
			return nil, fmt.Errorf("client: %s %s failed after %d attempt(s): %w", method, path, attempt+1, err)
		}
		c.reg.AddUint("client/retries", 1)
		if serr := c.sleep(ctx, c.backoff(method, path, attempt, nil)); serr != nil {
			return nil, fmt.Errorf("client: %s %s failed after %d attempt(s): %w", method, path, attempt+1, err)
		}
	}
}

// parseRetryAfter decodes a Retry-After header value in either form RFC
// 9110 allows: delay-seconds ("7") or an HTTP-date ("Fri, 08 Aug 2026
// 10:00:00 GMT", evaluated against now and clamped at zero for dates
// already past). ok is false for absent or malformed values.
func parseRetryAfter(v string, now time.Time) (d time.Duration, ok bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// backoff computes the wait before retry `attempt` of a request: a server
// Retry-After hint when present — either RFC form, capped at
// RetryAfterMax so a bogus hint cannot stall a command past its deadline
// — else the server's own retry schedule, server.BackoffDelay, keyed by
// Seed, method and path.
func (c *Client) backoff(method, path string, attempt int, hdr http.Header) time.Duration {
	if hdr != nil {
		if d, ok := parseRetryAfter(hdr.Get("Retry-After"), time.Now()); ok {
			c.reg.AddUint("client/retry_after_honored", 1)
			if c.cfg.RetryAfterMax > 0 && d > c.cfg.RetryAfterMax {
				c.reg.AddUint("client/retry_after_capped", 1)
				d = c.cfg.RetryAfterMax
			}
			return d
		}
	}
	key := strconv.FormatInt(c.cfg.Seed, 10) + " " + method + " " + path
	return server.BackoffDelay(c.cfg.RetryBackoff, attempt, key)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newRequest builds one attempt's request, propagating the context
// deadline over the wire as X-Charon-Deadline.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base.String()+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, dl.UTC().Format(time.RFC3339Nano))
		c.reg.AddUint("client/deadline_headers", 1)
	}
	return req, nil
}

// exchange performs one (possibly hedged) HTTP exchange and reads the
// complete body — a truncated body is a transport failure here, so the
// retry layer sees through torn responses.
func (c *Client) exchange(ctx context.Context, method, path string, body []byte, hedge bool) (*response, error) {
	if !hedge || c.cfg.HedgeDelay <= 0 || method != http.MethodGet {
		return c.attempt(ctx, method, path, body)
	}

	type result struct {
		resp *response
		err  error
		idx  int
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	launch := func(idx int) {
		resp, err := c.attempt(hctx, method, path, body)
		ch <- result{resp, err, idx}
	}
	go launch(0)

	inFlight := 1
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	var firstFail *result
	for {
		select {
		case <-timer.C:
			if inFlight == 1 { // first request is slow: hedge it
				c.reg.AddUint("client/hedges", 1)
				inFlight++
				go launch(1)
			}
		case r := <-ch:
			if r.err == nil {
				if r.idx == 1 {
					c.reg.AddUint("client/hedge_wins", 1)
				}
				return r.resp, nil
			}
			inFlight--
			if firstFail == nil {
				firstFail = &r
			}
			if inFlight == 0 {
				// Both (or the only) attempt failed. If the hedge timer
				// never fired, fail with the sole error.
				return nil, firstFail.err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attempt is one raw HTTP round trip with a fully-read body.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (*response, error) {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s %s response: %w", method, path, err)
	}
	return &response{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// Submit posts a job. Safe under retries and ambiguous failures: the
// job id is a canonical content key, so a duplicated POST deduplicates
// server-side onto the same job.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (Job, error) {
	return jobs.submit(ctx, c, spec)
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	return jobs.status(ctx, c, id)
}

// Wait polls the job until it reaches a terminal state or ctx expires.
// Transient polling failures do not abort the wait.
func (c *Client) Wait(ctx context.Context, id string) (Job, error) {
	return jobs.wait(ctx, c, id)
}

// Result fetches a done job's rendered report — the exact bytes the
// server rendered through cli.RenderReports, byte-identical to the
// charonsim CLI's output for the same configuration. Returns ErrNotDone
// while the job is still queued or running.
func (c *Client) Result(ctx context.Context, id string) (string, error) {
	return jobs.result(ctx, c, id)
}

// WaitResult waits for the job to finish and returns its report. A
// failed or canceled job returns the server's error.
func (c *Client) WaitResult(ctx context.Context, id string) (string, error) {
	return jobs.waitResult(ctx, c, id)
}

// SweepChild is one grid point's status row inside a sweep.
type SweepChild struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Experiment string `json:"experiment"`
	Workloads  string `json:"workloads,omitempty"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Sweep is the client-side view of a batch sweep (the server's sweep
// JSON): the aggregate state, a per-state census, and the ordered
// children.
type Sweep struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Total     int            `json:"total"`
	Counts    map[string]int `json:"counts"`
	Created   string         `json:"created,omitempty"`
	Recovered int            `json:"recovered,omitempty"`
	Children  []SweepChild   `json:"children"`
}

// Terminal reports whether every child has reached a final state.
func (s Sweep) Terminal() bool { return terminal(s.State) }

func (s Sweep) head() (id, state string) { return s.ID, s.State }

func (s Sweep) failure() string {
	return fmt.Sprintf("%d of %d children %s", s.Counts[s.State], s.Total, s.State)
}

// SubmitSweep posts a parameter grid as one batch. Like Submit, it is
// safe under retries and ambiguous failures: the sweep id is the hash of
// the expanded grid, so a duplicated POST deduplicates server-side onto
// the same sweep (and through it onto every cached child result).
func (c *Client) SubmitSweep(ctx context.Context, spec server.SweepSpec) (Sweep, error) {
	return sweeps.submit(ctx, c, spec)
}

// SweepStatus fetches a sweep's aggregate status.
func (c *Client) SweepStatus(ctx context.Context, id string) (Sweep, error) {
	return sweeps.status(ctx, c, id)
}

// SweepWait polls the sweep until every child reaches a terminal state
// or ctx expires. One aggregate poll covers the whole grid, and
// transient polling failures do not abort the wait.
func (c *Client) SweepWait(ctx context.Context, id string) (Sweep, error) {
	return sweeps.wait(ctx, c, id)
}

// SweepResult fetches a completed sweep's combined report: every child's
// rendered bytes concatenated in grid order, byte-identical to running
// the equivalent charonsim CLI invocations locally. Returns ErrNotDone
// while any child is still pending.
func (c *Client) SweepResult(ctx context.Context, id string) (string, error) {
	return sweeps.result(ctx, c, id)
}

// SweepWaitResult waits for the sweep to finish and returns its combined
// report. A failed or canceled sweep maps onto ErrJobFailed/ErrJobCanceled,
// so charonctl's exit contract treats sweeps and jobs uniformly.
func (c *Client) SweepWaitResult(ctx context.Context, id string) (string, error) {
	return sweeps.waitResult(ctx, c, id)
}

// Cancel requests cancellation and returns the job's resulting view.
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	return jobs.call(ctx, c, http.MethodDelete, jobs.path(id), nil, false)
}

// doc is a status document charond answers with: a Job or a Sweep.
type doc interface {
	Job | Sweep
	Terminal() bool
	head() (id, state string)
	// failure says why a failed or canceled entry ended so.
	failure() string
}

// resource is one of the two kinds charond tracks — jobs, and sweeps
// over jobs — as the client drives them; D is its status document. Both
// share one request, poll and decode path.
type resource[D doc] struct {
	name string // "job" or "sweep"
}

var (
	jobs   = resource[Job]{"job"}
	sweeps = resource[Sweep]{"sweep"}
)

func (r resource[D]) path(id string) string {
	return "/v1/" + r.name + "s/" + url.PathEscape(id)
}

func (r resource[D]) submit(ctx context.Context, c *Client, spec any) (D, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		var zero D
		return zero, fmt.Errorf("client: encoding %s spec: %w", r.name, err)
	}
	return r.call(ctx, c, http.MethodPost, "/v1/"+r.name+"s", payload, false)
}

func (r resource[D]) status(ctx context.Context, c *Client, id string) (D, error) {
	return r.call(ctx, c, http.MethodGet, r.path(id), nil, true)
}

// call runs one request through the retry stack and decodes the status
// document it answers with.
func (r resource[D]) call(ctx context.Context, c *Client, method, path string, body []byte, hedge bool) (D, error) {
	var d, zero D
	resp, err := c.do(ctx, method, path, body, hedge)
	if err == nil {
		err = resp.asError()
	}
	if err != nil {
		return zero, err
	}
	if err := json.Unmarshal(resp.body, &d); err != nil {
		return zero, fmt.Errorf("client: decoding %s: %w (in %q)", r.name, err, resp.body)
	}
	if id, _ := d.head(); id == "" {
		return zero, fmt.Errorf("client: %s response missing id (in %q)", r.name, resp.body)
	}
	return d, nil
}

// wait polls the entry every PollInterval until it is terminal or ctx
// expires; each poll rides the usual retry/hedging machinery. Transient
// polling failures do not abort the wait — the work keeps running
// server-side regardless, so the client keeps watching until its
// deadline says otherwise.
func (r resource[D]) wait(ctx context.Context, c *Client, id string) (D, error) {
	var zero D
	var lastErr error
	for {
		d, err := r.status(ctx, c, id)
		if err == nil {
			if d.Terminal() {
				return d, nil
			}
			lastErr = nil
		} else {
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				return zero, err // the server answered: unknown id etc. — not transient
			}
			lastErr = err
		}
		if serr := c.sleep(ctx, c.cfg.PollInterval); serr != nil {
			if lastErr != nil {
				return zero, fmt.Errorf("client: %s wait %s: %w (last poll failure: %v)", r.name, id, serr, lastErr)
			}
			return zero, fmt.Errorf("client: %s wait %s: %w", r.name, id, serr)
		}
	}
}

func (r resource[D]) result(ctx context.Context, c *Client, id string) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, r.path(id)+"/result", nil, true)
	if err != nil {
		return "", err
	}
	if resp.status == http.StatusAccepted {
		return "", ErrNotDone
	}
	if err := resp.asError(); err != nil {
		return "", err
	}
	return string(resp.body), nil
}

func (r resource[D]) waitResult(ctx context.Context, c *Client, id string) (string, error) {
	for {
		d, err := r.wait(ctx, c, id)
		if err != nil {
			return "", err
		}
		switch _, state := d.head(); state {
		case server.StateDone:
			text, err := r.result(ctx, c, id)
			if err == ErrNotDone {
				continue // raced a state change; re-observe
			}
			return text, err
		case server.StateFailed:
			return "", fmt.Errorf("client: %s %s: %w: %s", r.name, id, ErrJobFailed, d.failure())
		default: // canceled
			return "", fmt.Errorf("client: %s %s: %w: %s", r.name, id, ErrJobCanceled, d.failure())
		}
	}
}

// ServerMetrics fetches the server's /v1/metrics document verbatim.
func (c *Client) ServerMetrics(ctx context.Context) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, true)
	if err != nil {
		return nil, err
	}
	if err := resp.asError(); err != nil {
		return nil, err
	}
	return resp.body, nil
}

// Healthy probes /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil, true)
	if err != nil {
		return err
	}
	return resp.asError()
}

// MetricsSnapshot writes the client-side counter snapshot as JSON —
// charonctl's -client-metrics artifact.
func (c *Client) MetricsSnapshot(w io.Writer) error {
	return c.reg.Snapshot().WriteJSON(w)
}
