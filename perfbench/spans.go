package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spans records the benchmark's own spans around its calls into each
// layer. They stay in memory and are written out, in chrome://tracing
// form, when the traced pass ends.
type spans struct {
	mu     sync.Mutex
	origin time.Time
	events []spanEvent
	totals map[string]time.Duration
}

type spanEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs since the pass began
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func newSpans() *spans {
	return &spans{origin: time.Now(), totals: map[string]time.Duration{}}
}

// start opens a span; calling the returned func closes it.
func (s *spans) start(name string) func() {
	t0 := time.Now()
	return func() { s.add(name, t0, time.Since(t0)) }
}

func (s *spans) add(name string, start time.Time, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.totals[name] += d
	s.events = append(s.events, spanEvent{Name: name, Ph: "X",
		Ts: float64(start.Sub(s.origin).Nanoseconds()) / 1e3, Dur: float64(d.Nanoseconds()) / 1e3, Pid: 1, Tid: 1})
}

// total is the summed duration of every span with this name.
func (s *spans) total(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals[name]
}

// write saves the spans as o.out/spans/<workload>-seed<n>.json.
func (s *spans) write(o options, workload string) error {
	s.mu.Lock()
	data, err := json.Marshal(s.events)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	dir := filepath.Join(o.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, o.seed)), data, 0o644)
}
