package client

import (
	"net/http"
	"slices"
	"testing"
	"time"

	"charonsim/internal/server"
)

func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		in   string
		want time.Duration
		ok   bool
	}{
		{"empty", "", 0, false},
		{"seconds", "7", 7 * time.Second, true},
		{"seconds zero", "0", 0, true},
		{"seconds padded", "  3 ", 3 * time.Second, true},
		{"seconds negative", "-1", 0, false},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http date past", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"rfc850 date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second, true},
		{"garbage", "soon", 0, false},
		{"float", "1.5", 0, false},
	}
	for _, tc := range cases {
		d, ok := parseRetryAfter(tc.in, now)
		if d != tc.want || ok != tc.ok {
			t.Errorf("%s: parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.name, tc.in, d, ok, tc.want, tc.ok)
		}
	}
}

func TestBackoffHonorsBothRetryAfterForms(t *testing.T) {
	c, err := New(Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}

	hdr := http.Header{}
	hdr.Set("Retry-After", "2")
	if d := c.backoff("GET", "/v1/jobs/x", 0, hdr); d != 2*time.Second {
		t.Fatalf("integer-seconds hint = %v, want 2s", d)
	}

	// The HTTP-date form is evaluated against the wall clock, so accept a
	// small window below the nominal delta.
	hdr.Set("Retry-After", time.Now().Add(10*time.Second).UTC().Format(http.TimeFormat))
	if d := c.backoff("GET", "/v1/jobs/x", 0, hdr); d < 8*time.Second || d > 10*time.Second {
		t.Fatalf("HTTP-date hint = %v, want ~10s", d)
	}
	if n := c.Metrics().Counter("client/retry_after_honored"); n != 2 {
		t.Fatalf("retry_after_honored = %v, want 2", n)
	}

	// A malformed hint falls back to exponential backoff, not zero.
	hdr.Set("Retry-After", "whenever")
	if d := c.backoff("GET", "/v1/jobs/x", 0, hdr); d < c.cfg.RetryBackoff {
		t.Fatalf("malformed hint backoff = %v, want >= base %v", d, c.cfg.RetryBackoff)
	}
}

func TestBackoffCapsRetryAfterHint(t *testing.T) {
	c, err := New(Config{BaseURL: "http://127.0.0.1:1", RetryAfterMax: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hdr := http.Header{}
	hdr.Set("Retry-After", "3600") // a bogus hour must not stall the command
	if d := c.backoff("GET", "/v1/jobs/x", 0, hdr); d != 2*time.Second {
		t.Fatalf("capped hint = %v, want 2s", d)
	}
	hdr.Set("Retry-After", time.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
	if d := c.backoff("GET", "/v1/jobs/x", 0, hdr); d != 2*time.Second {
		t.Fatalf("capped HTTP-date hint = %v, want 2s", d)
	}
	if n := c.Metrics().Counter("client/retry_after_capped"); n != 2 {
		t.Fatalf("retry_after_capped = %v, want 2", n)
	}
	if n := c.Metrics().Counter("client/retry_after_honored"); n != 2 {
		t.Fatalf("retry_after_honored = %v, want 2", n)
	}

	// Negative disables the cap per the repo's knob convention.
	u, err := New(Config{BaseURL: "http://127.0.0.1:1", RetryAfterMax: -1})
	if err != nil {
		t.Fatal(err)
	}
	hdr.Set("Retry-After", "3600")
	if d := u.backoff("GET", "/v1/jobs/x", 0, hdr); d != time.Hour {
		t.Fatalf("uncapped hint = %v, want 1h", d)
	}

	// The default cap (30s) applies when the knob is left zero.
	if d := c.backoff("GET", "/v1/jobs/x", 0, nil); d <= 0 {
		t.Fatalf("no-header backoff = %v, want > 0", d)
	}
	def, err := New(Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	hdr.Set("Retry-After", "3600")
	if d := def.backoff("GET", "/v1/jobs/x", 0, hdr); d != 30*time.Second {
		t.Fatalf("default-capped hint = %v, want 30s", d)
	}
}

func TestClientBackoffShiftCap(t *testing.T) {
	c, err := New(Config{BaseURL: "http://127.0.0.1:1", RetryBackoff: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// base·2^6 = 6.4s is the ceiling; +50% jitter bounds the whole wait
	// at 9.6s for any attempt count, with no overflow to zero/negative.
	for _, attempt := range []int{6, 7, 20, 64, 1000} {
		d := c.backoff("GET", "/v1/jobs/x", attempt, nil)
		if d <= 0 {
			t.Fatalf("attempt %d: backoff %v <= 0", attempt, d)
		}
		if d > 9600*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v escaped the 64x cap", attempt, d)
		}
		if d < 6400*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v below the saturated base 6.4s", attempt, d)
		}
	}
}

// TestClientBackoffSchedule: without a hint the client waits on the
// server's retry schedule. The same seed and request reproduce it
// exactly; another seed or another request desynchronizes it; every
// wait stays in [base·2^min(attempt,6), 1.5× that).
func TestClientBackoffSchedule(t *testing.T) {
	const base = 100 * time.Millisecond
	schedule := func(seed int64, method, path string) []time.Duration {
		c, err := New(Config{BaseURL: "http://127.0.0.1:1", RetryBackoff: base, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		for attempt := 0; attempt < 10; attempt++ {
			out = append(out, c.backoff(method, path, attempt, nil))
		}
		return out
	}
	ref := schedule(7, "GET", "/v1/jobs/a")
	if !slices.Equal(ref, schedule(7, "GET", "/v1/jobs/a")) {
		t.Fatal("same seed and request gave two schedules")
	}
	for _, other := range [][]time.Duration{
		schedule(8, "GET", "/v1/jobs/a"),
		schedule(7, "GET", "/v1/jobs/b"),
		schedule(7, "POST", "/v1/jobs/a"),
	} {
		if slices.Equal(ref, other) {
			t.Fatal("a different seed or request shares the schedule")
		}
	}
	for attempt, d := range ref {
		if want := server.BackoffDelay(base, attempt, "7 GET /v1/jobs/a"); d != want {
			t.Fatalf("attempt %d: client backoff %v, server schedule %v", attempt, d, want)
		}
		floor := base << uint(min(attempt, 6))
		if d < floor || d >= floor+floor/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, floor, floor+floor/2)
		}
	}
}
