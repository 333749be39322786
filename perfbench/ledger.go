package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ledger remembers, per build of this program, workload and seed, the
// report digests of the first pass that produced them and the exact work
// counts of the first traced pass. Later runs with the same seed must
// reproduce both; any difference is counted as a failed operation.
type ledger struct {
	path    string
	Digests map[string]string  `json:"digests"`
	Counts  map[string]float64 `json:"counts"`
}

// openLedger loads (or starts) the ledger under o.out/ledger. The key
// includes a hash of this executable, so a rebuilt program starts fresh.
func openLedger(o options, workload string) (*ledger, error) {
	build, err := executableHash()
	if err != nil {
		return nil, err
	}
	l := &ledger{
		path:    filepath.Join(o.out, "ledger", fmt.Sprintf("%s-seed%d-%s.json", workload, o.seed, build)),
		Digests: map[string]string{},
		Counts:  map[string]float64{},
	}
	data, err := os.ReadFile(l.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return l, nil
	case err != nil:
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", l.path, err)
	}
	return l, nil
}

func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:6]), nil
}

// digestRefs returns the recorded digest for every key of got, recording
// got's value for keys seen for the first time.
func (l *ledger) digestRefs(got map[string]string) map[string]string {
	ref := map[string]string{}
	for k, v := range got {
		if old, ok := l.Digests[k]; ok {
			ref[k] = old
		} else {
			l.Digests[k] = v
			ref[k] = v
		}
	}
	return ref
}

// checkCounts compares the traced pass's exact work counts with the
// first traced pass of the same seed: one operation, failed on any
// difference.
func (l *ledger) checkCounts(r *result) {
	if len(l.Counts) == 0 {
		for _, name := range exactCounts {
			l.Counts[name] = r.layer[name]
		}
		r.op(nil)
		return
	}
	for _, name := range exactCounts {
		if got, want := r.layer[name], l.Counts[name]; got != want {
			r.op(fmt.Errorf("exact count %s = %v, but an earlier traced pass with the same seed counted %v", name, got, want))
			return
		}
	}
	r.op(nil)
}

func (l *ledger) save() error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}
