package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"charonsim/internal/exec"
	"charonsim/internal/fault"
)

// TestForEachPanicRecovery: a panicking run becomes that index's error —
// with the stack attached — instead of crashing the sweep, at every
// parallelism level, and the other indices still run.
func TestForEachPanicRecovery(t *testing.T) {
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[int]bool{}
		err := forEach(par, 8, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == 2 {
				panic("invariant tripped")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("par=%d: panic swallowed", par)
		}
		if !strings.Contains(err.Error(), "run 2 panicked: invariant tripped") {
			t.Fatalf("par=%d: error %q missing panic provenance", par, err)
		}
		if !strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("par=%d: error missing stack trace", par)
		}
		if par > 1 && len(ran) != 8 {
			t.Fatalf("par=%d: a panic stopped other runs (%d/8 ran)", par, len(ran))
		}
	}
}

// TestForEachTimeout: a run exceeding the budget fails with a timeout
// error naming the index; fast runs are untouched; zero disables.
func TestForEachTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block) // release the abandoned goroutine
	err := forEachCtx(context.Background(), 4, 20*time.Millisecond, 3, func(i int) error {
		if i == 1 {
			<-block
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "run 1 exceeded the 20ms run timeout") {
		t.Fatalf("got %v, want index-1 timeout error", err)
	}

	if err := forEachCtx(context.Background(), 2, 0, 4, func(i int) error { return nil }); err != nil {
		t.Fatalf("zero timeout must disable the budget: %v", err)
	}
	if err := forEachCtx(context.Background(), 2, time.Minute, 4, func(i int) error { return nil }); err != nil {
		t.Fatalf("fast runs must beat a generous budget: %v", err)
	}
}

// TestConfigForEachBindsKnobs: the Config-bound pool honors RunTimeout and
// Parallelism together.
func TestConfigForEachBindsKnobs(t *testing.T) {
	cfg := Config{Parallelism: 2, RunTimeout: 15 * time.Millisecond}
	block := make(chan struct{})
	defer close(block)
	err := cfg.forEach(2, func(i int) error {
		if i == 0 {
			<-block
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded the 15ms run timeout") {
		t.Fatalf("got %v, want timeout from Config.RunTimeout", err)
	}
}

// TestReplayFaultZeroConfigIsReplay: replaying with a zero (disabled)
// fault config takes the plain platform path — per-event results exactly
// equal to Replay on a fault-free session. The two replays run in separate
// sessions: within one they are the same memoized unit.
func TestReplayFaultZeroConfigIsReplay(t *testing.T) {
	replay := func(zero bool) []exec.Result {
		s := NewSession(Config{Workloads: []string{"BS"}})
		r, err := s.Record("BS", 1.5)
		if err != nil {
			t.Fatal(err)
		}
		var out []exec.Result
		if zero {
			out, err = s.ReplayFault(r, exec.KindCharon, 8, fault.Config{})
		} else {
			out, err = s.Replay(r, exec.KindCharon, 8)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain, zero := replay(false), replay(true)
	if len(plain) != len(zero) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(zero))
	}
	for i := range plain {
		if plain[i] != zero[i] {
			t.Fatalf("event %d diverged:\nplain: %+v\nzero:  %+v", i, plain[i], zero[i])
		}
	}
}
