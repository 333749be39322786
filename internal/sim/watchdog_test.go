package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// abortOf runs fn and returns the structured abort it panicked with, or
// nil if it returned normally.
func abortOf(t *testing.T, fn func()) (err error) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ab, ok := r.(Aborted)
		if !ok {
			t.Fatalf("panic value %v (%T), want sim.Aborted", r, r)
		}
		err = ab.Err
	}()
	fn()
	return nil
}

// stallDiag is the dump a stalled caller hands the monitor.
func stallDiag() Diagnostics {
	return Diagnostics{Now: 42 * Nanosecond, Detail: "  stuck stepper\n"}
}

func TestWatchdogStallLimit(t *testing.T) {
	m := NewMonitor(Watchdog{StallLimit: 100})
	// A stepper spinning in place: simulated time never advances.
	err := abortOf(t, func() {
		for {
			m.Tick(false, stallDiag)
		}
	})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err %v is not a *NoProgressError", err)
	}
	if np.Diag.StallSteps <= 100 {
		t.Errorf("diagnostic stall count %d, want > limit 100", np.Diag.StallSteps)
	}
	if np.Diag.Steps != np.Diag.StallSteps {
		t.Errorf("steps %d != stalled steps %d for an all-stalled run", np.Diag.Steps, np.Diag.StallSteps)
	}
	if np.Diag.Now != 42*Nanosecond || !strings.Contains(np.Error(), "stuck stepper") {
		t.Errorf("dump lost the caller's diagnostics:\n%s", np.Error())
	}
}

func TestWatchdogAllowsAdvancingRuns(t *testing.T) {
	m := NewMonitor(Watchdog{StallLimit: 4})
	// Many steps with stalls shorter than the limit: each advance must
	// reset the stall counter.
	err := abortOf(t, func() {
		for i := 0; i < 1000; i++ {
			m.Tick(i%4 == 3, stallDiag)
		}
	})
	if err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
	if m.Steps() != 1000 {
		t.Fatalf("monitor saw %d steps, want 1000", m.Steps())
	}
	if m.Stalls() != 0 {
		t.Fatalf("stall counter %d after an advancing step, want 0", m.Stalls())
	}
}

func TestWatchdogWallClock(t *testing.T) {
	m := NewMonitor(Watchdog{WallClock: 30 * time.Millisecond, CheckEvery: 64})
	// Time advances forever, so only the wall-clock heartbeat can stop it.
	start := time.Now()
	err := abortOf(t, func() {
		for {
			m.Tick(true, stallDiag)
		}
	})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", el)
	}
}

func TestWatchdogContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewMonitor(Watchdog{Ctx: ctx, CheckEvery: 64})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := abortOf(t, func() {
		for {
			m.Tick(true, stallDiag)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	m.Tick(false, nil)
	m.CheckCtx()
	if m.Steps() != 0 || m.Stalls() != 0 {
		t.Fatal("nil monitor reported state")
	}
	if NewMonitor(Watchdog{}) != nil {
		t.Fatal("zero watchdog config must yield a nil (disabled) monitor")
	}
}

func TestDefaultWatchdogBoundsAreGenerous(t *testing.T) {
	cfg := DefaultWatchdog()
	if !cfg.Enabled() {
		t.Fatal("default watchdog disabled")
	}
	if cfg.StallLimit < 1<<20 {
		t.Fatalf("default stall bound %d too tight for healthy replays", cfg.StallLimit)
	}
}
