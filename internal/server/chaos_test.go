package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"charonsim/internal/cli"
)

// charondProc is one charond subprocess booted through the helper-process
// trampoline (TestCharondHelperProcess).
type charondProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	errb *bytes.Buffer
}

// startCharond boots charond as a real OS process on an ephemeral port
// and waits for its listening announcement.
func startCharond(t *testing.T, args ...string) *charondProc {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0], "-test.run=TestCharondHelperProcess$")
	cmd.Env = append(os.Environ(), "CHAROND_HELPER=1",
		"CHAROND_ARGS="+strings.Join(args, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errb bytes.Buffer
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("charond printed no listening line; stderr:\n%s", errb.String())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("unexpected stdout line %q", line)
	}
	go io.Copy(io.Discard, stdout)
	return &charondProc{cmd: cmd, base: strings.TrimSpace(line[i+len(marker):]), errb: &errb}
}

// unitFingerprints records name → mtime+size for every published unit
// checkpoint, the evidence for the no-duplicate-execution assertion.
func unitFingerprints(t *testing.T, unitsDir string) map[string]string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(unitsDir, "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	fp := make(map[string]string, len(matches))
	for _, m := range matches {
		st, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		fp[m] = fmt.Sprintf("%d/%d", st.ModTime().UnixNano(), st.Size())
	}
	return fp
}

// saveChaosArtifacts keeps a failed chaos run's post-mortem: when
// CHAOS_ARTIFACT_DIR is set, it copies the journal directory and each
// charond's stderr there.
func saveChaosArtifacts(t *testing.T, cacheDir string, procs []*charondProc) {
	dst := os.Getenv("CHAOS_ARTIFACT_DIR")
	if !t.Failed() || dst == "" {
		return
	}
	journal := filepath.Join(dst, "journal")
	if err := os.MkdirAll(journal, 0o755); err != nil {
		t.Logf("post-mortem: %v", err)
		return
	}
	recs, _ := filepath.Glob(filepath.Join(cacheDir, "journal", "*"))
	for _, rec := range recs {
		if raw, err := os.ReadFile(rec); err == nil {
			_ = os.WriteFile(filepath.Join(journal, filepath.Base(rec)), raw, 0o644)
		}
	}
	for i, p := range procs {
		_ = os.WriteFile(filepath.Join(dst, fmt.Sprintf("charond%d.err", i+1)), p.errb.Bytes(), 0o644)
	}
	t.Logf("post-mortem kept in %s", dst)
}

// TestCharondKill9Recovery is the chaos gate: kill -9 a charond mid-job,
// restart it over the same cache directory, and assert the job is
// replayed from the journal to a byte-identical result with every
// pre-crash simulation unit reused untouched — read back through the
// server's unit store, whose hit counter must show it. On failure, with
// CHAOS_ARTIFACT_DIR set, the journal and charond's stderr are kept there.
func TestCharondKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos run is slow")
	}
	cacheDir := t.TempDir()
	args := []string{"-workers", "1", "-queue", "4", "-cache-dir", cacheDir}
	var procs []*charondProc
	// Registered before any charond starts, so it runs after their
	// cleanups have reaped them and their stderr is complete.
	t.Cleanup(func() { saveChaosArtifacts(t, cacheDir, procs) })

	p1 := startCharond(t, args...)
	procs = append(procs, p1)
	resp, err := http.Post(p1.base+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig2","workloads":["BS"]}`))
	if err != nil {
		t.Fatalf("submit: %v; stderr:\n%s", err, p1.errb.String())
	}
	var v view
	dec := jsonDecode(resp.Body, &v)
	resp.Body.Close()
	if dec != nil || v.ID == "" {
		t.Fatalf("submit decode: %v (%+v)", dec, v)
	}
	// Durability contract: the journal record is published before the 202.
	if rec, _ := filepath.Glob(filepath.Join(cacheDir, "journal", "*.ckpt.json")); len(rec) == 0 {
		t.Fatal("no journal record on disk after the 202")
	}

	// Kill once the first simulation unit is checkpointed, so recovery
	// resumes genuinely partial work.
	unitsDir := filepath.Join(cacheDir, "units")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(unitsDir, "*.ckpt.json")); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no unit checkpoint appeared; stderr:\n%s", p1.errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p1.cmd.Wait()
	before := unitFingerprints(t, unitsDir)
	if len(before) == 0 {
		t.Fatal("no completed units survived the kill")
	}

	// Restart over the same cache directory: the job must reappear from
	// the journal under its original id, without any resubmission.
	p2 := startCharond(t, args...)
	procs = append(procs, p2)
	r, err := http.Get(p2.base + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var jv view
	_ = jsonDecode(r.Body, &jv)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("recovered job GET = %d, want 200; stderr:\n%s", r.StatusCode, p2.errb.String())
	}
	if jv.Recovered < 1 {
		t.Fatalf("job not marked crash-recovered: %+v", jv)
	}

	deadline = time.Now().Add(120 * time.Second)
	for {
		r, err := http.Get(p2.base + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		_ = jsonDecode(r.Body, &jv)
		r.Body.Close()
		if jv.State == StateDone {
			break
		}
		if terminal(jv.State) || time.Now().After(deadline) {
			t.Fatalf("recovered job state %q (err %q); stderr:\n%s", jv.State, jv.Error, p2.errb.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// No duplicate unit execution: every pre-crash unit file is untouched.
	after := unitFingerprints(t, unitsDir)
	for name, fp := range before {
		if after[name] != fp {
			t.Errorf("pre-crash unit %s rewritten (%s -> %s): completed work re-executed",
				filepath.Base(name), fp, after[name])
		}
	}

	// The restart recovered the job from the journal, and the pre-crash
	// units came back through the server's own store handle.
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	r, err = http.Get(p2.base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dec = jsonDecode(r.Body, &snap)
	r.Body.Close()
	if dec != nil {
		t.Fatalf("/v1/metrics decode: %v", dec)
	}
	if n := snap.Counters["server/journal_recovered"]; n < 1 {
		t.Errorf("server/journal_recovered = %v, want >= 1", n)
	}
	if n := snap.Counters["server/unit_store/hits"]; n < float64(len(before)) {
		t.Errorf("server/unit_store/hits = %v, want >= %d (the pre-crash units)", n, len(before))
	}

	// Byte-identity: the recovered report equals the CLI's output.
	r, err = http.Get(p2.base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", r.StatusCode, served)
	}
	var cliOut, cliErr bytes.Buffer
	if code := cli.Run([]string{"-exp", "fig2", "-workloads", "BS"}, &cliOut, &cliErr); code != 0 {
		t.Fatalf("CLI exited %d: %s", code, cliErr.String())
	}
	if want := stripTrailer(cliOut.String()); string(served) != want {
		t.Fatalf("recovered report diverged from CLI:\n--- served ---\n%q\n--- cli ---\n%q", served, want)
	}

	// Clean drain to finish.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p2.cmd.Wait()
	if code := p2.cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("post-recovery drain exited %d; stderr:\n%s", code, p2.errb.String())
	}
}
