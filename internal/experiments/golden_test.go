package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"charonsim/internal/checkpoint"
	"charonsim/internal/exec"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenShare builds a Fig4 share vector without spelling out NumPrims.
func goldenShare(copy, search, scanpush, bitmap, adjust, other float64) [gc.NumPrims]float64 {
	var s [gc.NumPrims]float64
	s[gc.PrimCopy] = copy
	s[gc.PrimSearch] = search
	s[gc.PrimScanPush] = scanpush
	s[gc.PrimBitmapCount] = bitmap
	s[gc.PrimAdjust] = adjust
	s[gc.PrimOther] = other
	return s
}

// goldenRenders pins every render path. The tables render live (they are
// static); the figure renderers get hand-built result structs with fixed
// values, so the goldens capture layout and formatting — the exact thing a
// render refactor can silently change — without any simulation cost.
func goldenRenders() map[string]func() string {
	return map[string]func() string{
		"table1": RenderTable1,
		"table2": RenderTable2,
		"table3": RenderTable3,
		"table4": RenderTable4,
		"fig2": func() string {
			r := &Fig2Result{
				Factors:  []float64{1.0, 1.25, 1.5, 2.0},
				Workload: []string{"WL1", "WL2"},
				Overhead: map[string][]float64{
					"WL1": {3.65, 1.41, 0.82, 0.15},
					"WL2": {1.20, 0.75, 0.44, 0.21},
				},
			}
			return r.Render()
		},
		"fig4": func() string {
			r := &Fig4Result{
				Kind:     gc.Minor,
				Workload: []string{"WL1", "WL2"},
				Share: map[string][gc.NumPrims]float64{
					"WL1": goldenShare(0.41, 0.12, 0.23, 0.09, 0.05, 0.10),
					"WL2": goldenShare(0.35, 0.18, 0.20, 0.14, 0.06, 0.07),
				},
				KeyShare: map[string]float64{"WL1": 0.85, "WL2": 0.87},
			}
			return r.Render()
		},
		"fig12": func() string {
			r := &Fig12Result{
				Workload: []string{"WL1"},
				Speedup: map[string]map[exec.Kind]float64{
					"WL1": {exec.KindDDR4: 1.0, exec.KindHMC: 1.21, exec.KindCharon: 3.29, exec.KindIdeal: 3.52},
				},
				Geomean: map[exec.Kind]float64{
					exec.KindDDR4: 1.0, exec.KindHMC: 1.21, exec.KindCharon: 3.29, exec.KindIdeal: 3.52,
				},
			}
			return r.Render()
		},
		"fig13": func() string {
			r := &Fig13Result{
				Workload: []string{"WL1"},
				Bandwidth: map[string]map[exec.Kind]float64{
					"WL1": {exec.KindDDR4: 29.4, exec.KindHMC: 61.0, exec.KindCharon: 187.3},
				},
				LocalRatio: map[string]float64{"WL1": 0.73},
			}
			return r.Render()
		},
		"fig14": func() string {
			r := &Fig14Result{
				Workload: []string{"WL1"},
				Speedup: map[string]map[gc.Prim]float64{
					"WL1": {gc.PrimSearch: 2.90, gc.PrimScanPush: 1.20, gc.PrimCopy: 10.17, gc.PrimBitmapCount: 5.63},
				},
				Average: map[gc.Prim]float64{
					gc.PrimSearch: 2.90, gc.PrimScanPush: 1.20, gc.PrimCopy: 10.17, gc.PrimBitmapCount: 5.63,
				},
				Max: map[gc.Prim]float64{
					gc.PrimSearch: 4.09, gc.PrimScanPush: 1.86, gc.PrimCopy: 26.15, gc.PrimBitmapCount: 6.11,
				},
			}
			return r.Render()
		},
		"fig15": func() string {
			r := &Fig15Result{
				Workload: []string{"WL1"},
				Threads:  []int{1, 2, 4, 8, 16},
				Throughput: map[string]map[exec.Kind][]float64{
					"WL1": {
						exec.KindDDR4:              {1.00, 1.62, 2.10, 2.31, 2.35},
						exec.KindCharon:            {1.80, 3.40, 6.10, 9.80, 12.40},
						exec.KindCharonDistributed: {1.78, 3.45, 6.40, 10.60, 14.90},
					},
				},
			}
			return r.Render()
		},
		"fig16": func() string {
			r := &Fig16Result{
				Workload: []string{"WL1"},
				Speedup: map[string]map[exec.Kind]float64{
					"WL1": {exec.KindDDR4: 1.0, exec.KindCharonCPUSide: 2.07, exec.KindCharon: 3.29},
				},
				CPUSideRatio: 0.63,
			}
			return r.Render()
		},
		"fig17": func() string {
			r := &Fig17Result{
				Workload: []string{"WL1"},
				Normalized: map[string]map[exec.Kind]float64{
					"WL1": {exec.KindDDR4: 1.0, exec.KindHMC: 0.81, exec.KindCharon: 0.39},
				},
				Savings: map[exec.Kind]float64{
					exec.KindDDR4: 0, exec.KindHMC: 0.19, exec.KindCharon: 0.607,
				},
				CharonAvgPowerW: 2.98,
				CharonMaxPowerW: 4.51,
				MaxPowerWork:    "WL1",
			}
			return r.Render()
		},
		"ablations": func() string {
			rs := []*AblationResult{
				{
					Name:    "MAI entries",
					Points:  []AblationPoint{{Label: "MAI=4"}, {Label: "MAI=32"}},
					Speedup: []float64{2.41, 3.29},
					Default: 1,
				},
				{
					Name:    "cube topology",
					Points:  []AblationPoint{{Label: "star"}, {Label: "chain"}},
					Speedup: []float64{3.29, 3.11},
					Default: 0,
				},
			}
			return RenderAblations(rs)
		},
		"collectors": func() string {
			r := &CollectorStudyResult{
				Workload: []string{"WL1"},
				Modes:    StudyModes,
				Speedup: map[string]map[gc.Mode]float64{
					"WL1": {gc.ModePS: 3.29, gc.ModeG1: 2.84, gc.ModeCMS: 2.11},
				},
				BitmapCountShare: map[string]map[gc.Mode]float64{
					"WL1": {gc.ModePS: 0.112, gc.ModeG1: 0.083, gc.ModeCMS: 0},
				},
				FullGCs: map[string]map[gc.Mode]int{
					"WL1": {gc.ModePS: 4, gc.ModeG1: 6, gc.ModeCMS: 5},
				},
				Geomean: map[gc.Mode]float64{gc.ModePS: 3.29, gc.ModeG1: 2.84, gc.ModeCMS: 2.11},
			}
			return r.Render()
		},
		"thermal": func() string {
			r := &ThermalResult{AvgPowerW: 2.98, MaxPowerW: 4.51, MaxWork: "WL1", DensityMWMM2: 45.1}
			return r.Render()
		},
		"faults": func() string {
			r := &FaultSweepResult{
				Workload: []string{"WL1", "WL2"},
				Rates:    []float64{0.001, 0.01, 0.05},
				Norm: map[string][]float64{
					"WL1": {0.388, 0.389, 0.395, 0.421, 1.0},
					"WL2": {0.419, 0.418, 0.427, 0.446, 1.0},
				},
				Geomean: []float64{0.404, 0.403, 0.410, 0.434, 1.0},
			}
			return r.Render()
		},
	}
}

// TestGoldenRenders diffs every rendered figure/table against its golden
// file, so render-path refactors are caught by diff rather than by eyeball
// against EXPERIMENTS.md. Regenerate with -update after an intentional
// format change.
func TestGoldenRenders(t *testing.T) {
	for name, render := range goldenRenders() {
		name, render := name, render
		t.Run(name, func(t *testing.T) {
			got := render()
			path := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with `go test ./internal/experiments -run Golden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("render differs from %s (re-run with -update if the change is intentional)\n--- want ---\n%s\n--- got ---\n%s",
					path, want, got)
			}
		})
	}
}

// TestGoldenReplayMetrics pins the metrics snapshot of Figure 12 followed
// by Figure 4(a) on BS in one session, and requires every tier a replay
// can come from to produce it byte for byte. Figure 4(a)'s DDR4 replay
// repeats one of Figure 12's, so the snapshot also shows that a memo hit
// counts the simulation it stands for; the checkpoint rows show the same
// for a unit read back from disk.
//
// The rows run in order and share one checkpoint directory per
// parallelism level: a cold row fills it, the warm row after it reads it
// in a fresh session and must simulate nothing, and the half-warm row
// deletes every other entry first, so it mixes read-back and live units.
// The golden file is the snapshot of the harness that simulated every
// replay; regenerate with -update only after an intentional model change.
func TestGoldenReplayMetrics(t *testing.T) {
	skipIfShort(t)
	path := filepath.Join("testdata", "golden", "metrics_fig12_fig4a_BS.json")
	want, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatalf("missing golden file (regenerate with `go test ./internal/experiments -run Golden -update`): %v", err)
	}
	const (
		none = iota // no checkpoint store
		cold        // an empty store
		warm        // the store the cold row filled
		half        // that store with every other entry deleted
	)
	dirs := map[int]string{1: t.TempDir(), 8: t.TempDir()}
	rows := []struct {
		name  string
		par   int // 0 selects the default
		store int
	}{
		{"no-store", 0, none},
		{"cold/par1", 1, cold},
		{"warm/par1", 1, warm},
		{"cold/par8", 8, cold},
		{"warm/par8", 8, warm},
		{"half-warm/par8", 8, half},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{Workloads: []string{"BS"}, Parallelism: row.par, Metrics: metrics.NewRegistry()}
			deleted := 0
			if row.store != none {
				dir := dirs[row.par]
				if row.store == half {
					ents, err := filepath.Glob(filepath.Join(dir, "*.ckpt.json"))
					if err != nil || len(ents) < 2 {
						t.Fatalf("the cold row left %d entries (err %v)", len(ents), err)
					}
					for i := 0; i < len(ents); i += 2 {
						if err := os.Remove(ents[i]); err != nil {
							t.Fatal(err)
						}
						deleted++
					}
				}
				st, err := checkpoint.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Checkpoint = st
			}
			s := NewSession(cfg)
			if _, err := Fig12(s); err != nil {
				t.Fatal(err)
			}
			if _, err := Fig4(s, gc.Minor); err != nil {
				t.Fatal(err)
			}
			switch n := s.Replays(); {
			case row.store == warm && n != 0:
				t.Fatalf("warm store: simulated %d units, want 0", n)
			case row.store == half && n != deleted:
				t.Fatalf("half-warm store: simulated %d units, want the %d deleted", n, deleted)
			case (row.store == none || row.store == cold) && n == 0:
				t.Fatal("simulated nothing")
			}
			var buf bytes.Buffer
			if err := cfg.Metrics.Snapshot().WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if *update {
				if row.store == none {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("metrics snapshot differs from %s", path)
			}
		})
	}
}
