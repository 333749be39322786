package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"charonsim/internal/checkpoint"
)

// Journal payloads exactly as charond writes them (journal schema 1): an
// unfinished job and an active sweep manifest, captured from a running
// server. They are literal bytes rather than marshaled from the structs
// the server reads, so a drift in the wire format fails here instead of
// being followed silently.
const (
	goldenJobKey    = `job/v1|exp=fig13|threads=8|factor=1.2|wl=KM|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0|wqueue=0`
	goldenJobID     = "48d3c747c90dcc94"
	goldenJobRecord = `{"schema":1,"id":"48d3c747c90dcc94","key":"job/v1|exp=fig13|threads=8|factor=1.2|wl=KM|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0|wqueue=0","spec":{"experiment":"fig13","heap_factor":1.2,"workloads":["KM"]},"state":"queued","created":"2026-10-17T04:02:34.574947652Z","updated":"2026-10-17T04:02:34.574963957Z"}`

	goldenSweepKey    = `sweep/v1|job/v1|exp=table3|threads=8|factor=1.5|wl=BS|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0|wqueue=0||job/v1|exp=table4|threads=8|factor=1.5|wl=BS|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0|wqueue=0`
	goldenSweepID     = "0cc15a6287a03d74"
	goldenSweepRecord = `{"schema":1,"kind":"sweep","id":"0cc15a6287a03d74","key":"sweep/v1|job/v1|exp=table3|threads=8|factor=1.5|wl=BS|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0|wqueue=0||job/v1|exp=table4|threads=8|factor=1.5|wl=BS|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0|wqueue=0","spec":{"experiments":["table3","table4"],"workloads":["BS"]},"state":"active","created":"2026-10-17T04:02:34.576574449Z","updated":"2026-10-17T04:02:34.577223317Z","child_ids":["3b9093ef4583fd06","9aa43134a0f9afbf"]}`
)

// TestJournalWireFormatGolden boots a server over the literal journal
// payloads and asserts that the job and the sweep come back under their
// original ids, and that the records the server rewrites keep the format
// byte for byte — apart from the fresh "updated" stamp, the state the
// job moved to, and the bumped crash generation.
func TestJournalWireFormatGolden(t *testing.T) {
	cacheDir := t.TempDir()
	jst, err := checkpoint.Open(filepath.Join(cacheDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	for key, rec := range map[string]string{goldenJobKey: goldenJobRecord, goldenSweepKey: goldenSweepRecord} {
		if err := jst.Put(key, json.RawMessage(rec)); err != nil {
			t.Fatal(err)
		}
	}

	g := newGate("golden\n")
	s, base := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: g.runner})
	if exp := <-g.started; exp != "fig13" { // the recovered job runs first
		t.Fatalf("first run = %s, want the recovered fig13 job", exp)
	}
	if n := s.Metrics().Counter("server/journal_recovered"); n != 1 {
		t.Fatalf("journal_recovered = %v, want 1", n)
	}
	if n := s.Metrics().Counter("server/sweeps_recovered"); n != 1 {
		t.Fatalf("sweeps_recovered = %v, want 1", n)
	}

	var jv view
	if resp := getJSON(t, base+"/v1/jobs/"+goldenJobID, &jv); resp.StatusCode != http.StatusOK || jv.Recovered != 1 {
		t.Fatalf("recovered job GET = %d (recovered %d), want 200 generation 1", resp.StatusCode, jv.Recovered)
	}
	var sv sweepView
	if resp := getJSON(t, base+"/v1/sweeps/"+goldenSweepID, &sv); resp.StatusCode != http.StatusOK || sv.Recovered != 1 {
		t.Fatalf("recovered sweep GET = %d (recovered %d), want 200 generation 1", resp.StatusCode, sv.Recovered)
	}
	if len(sv.Children) != 2 || sv.Children[0].ID != "3b9093ef4583fd06" || sv.Children[1].ID != "9aa43134a0f9afbf" {
		t.Fatalf("recovered sweep children = %+v, want the journaled child ids", sv.Children)
	}

	updated := regexp.MustCompile(`"updated":"[^"]*"`)
	for key, want := range map[string]string{
		goldenJobKey:   strings.Replace(goldenJobRecord, `"state":"queued"`, `"state":"running"`, 1),
		goldenSweepKey: goldenSweepRecord,
	} {
		want = strings.TrimSuffix(want, "}") + `,"recovered":1}`
		got, ok := jst.Get(key)
		if !ok {
			t.Fatalf("no journal record for %s after recovery", key)
		}
		if g, w := updated.ReplaceAllString(string(got), `"updated":""`), updated.ReplaceAllString(want, `"updated":""`); g != w {
			t.Errorf("rewritten record drifted from the wire format\n got: %s\nwant: %s", g, w)
		}
	}
	close(g.open)
}
