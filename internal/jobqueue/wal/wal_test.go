package wal_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interferometry/internal/jobqueue/wal"
	"interferometry/internal/obs"
)

func openLog(t *testing.T, path string, o *obs.Observer) (*wal.Log, []*wal.CampaignState) {
	t.Helper()
	l, states, err := wal.Open(wal.Config{Path: path, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return l, states
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, states := openLog(t, path, nil)
	if len(states) != 0 {
		t.Fatalf("fresh log replayed %d campaigns", len(states))
	}
	spec := json.RawMessage(`{"benchmark":"429.mcf","layouts":3}`)
	if err := l.Submit("c1", "acme", 0, spec); err != nil {
		t.Fatal(err)
	}
	if err := l.Gen("c1", 0, "h0"); err != nil {
		t.Fatal(err)
	}
	if err := l.Gen("c1", 2, "h2"); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit("c2", "umbrella", 1, spec); err != nil {
		t.Fatal(err)
	}
	if err := l.Final("c2", "done"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Op: wal.OpFinal, Campaign: "c1"}); err == nil {
		t.Fatal("append after Close succeeded")
	}

	_, states = openLog(t, path, nil)
	if len(states) != 2 {
		t.Fatalf("replayed %d campaigns, want 2", len(states))
	}
	c1, c2 := states[0], states[1]
	if c1.ID != "c1" || c2.ID != "c2" {
		t.Fatalf("replay order %q,%q — want first-submit order c1,c2", c1.ID, c2.ID)
	}
	if !c1.Live() || c1.Tenant != "acme" || string(c1.Spec) != string(spec) {
		t.Fatalf("c1 state %+v", c1)
	}
	if c1.Gens[0] != "h0" || c1.Gens[2] != "h2" || len(c1.Gens) != 2 {
		t.Fatalf("c1 gens %v", c1.Gens)
	}
	if c2.Live() || c2.Final != "done" || c2.Priority != 1 {
		t.Fatalf("c2 state %+v", c2)
	}
}

// TestTornTailIsDroppedAndRepaired: a crash mid-append leaves a partial
// line; reopen must replay everything before it, drop the torn record,
// and leave the file appendable on a clean line boundary.
func TestTornTailIsDroppedAndRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, _ := openLog(t, path, nil)
	if err := l.Submit("c1", "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Gen("c1", 0, "h0"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"gen","campaign":"c1","lay`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o := &obs.Observer{Metrics: obs.NewMetrics()}
	l2, states := openLog(t, path, o)
	if len(states) != 1 || states[0].Gens[0] != "h0" || len(states[0].Gens) != 1 {
		t.Fatalf("replay after torn tail: %+v", states)
	}
	if v := o.Counter("campaignd_wal_torn_tails_total", "").Value(); v != 1 {
		t.Fatalf("torn tail counter %d, want 1", v)
	}
	if v := o.Counter("campaignd_wal_records_replayed_total", "").Value(); v != 2 {
		t.Fatalf("replayed counter %d, want 2", v)
	}
	// The next append lands on its own line, not glued to the torn one.
	if err := l2.Gen("c1", 1, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, states = openLog(t, path, nil)
	if len(states[0].Gens) != 2 || states[0].Gens[1] != "h1" {
		t.Fatalf("post-repair replay gens %v", states[0].Gens)
	}
}

// TestUnterminatedTailIsKept: if only the trailing newline was lost,
// the record itself is whole and must survive replay.
func TestUnterminatedTailIsKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, _ := openLog(t, path, nil)
	if err := l.Submit("c1", "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, states := openLog(t, path, nil)
	if len(states) != 1 || states[0].ID != "c1" {
		t.Fatalf("unterminated-tail replay: %+v", states)
	}
	if err := l2.Gen("c1", 0, "h0"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, states = openLog(t, path, nil)
	if states[0].Gens[0] != "h0" {
		t.Fatalf("append after unterminated repair: %v", states[0].Gens)
	}
}

func TestMidFileCorruptionRefusesToOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	content := `{"op":"submit","campaign":"c1","layout":0}` + "\n" +
		"not json\n" +
		`{"op":"final","campaign":"c1","layout":0,"state":"done"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := wal.Open(wal.Config{Path: path})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption opened: %v", err)
	}
}

// TestCompactDropsFinalizedCampaigns: compaction keeps only live
// campaigns (with their generation records) and the log stays
// appendable.
func TestCompactDropsFinalizedCampaigns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	l, _ := openLog(t, path, o)
	if err := l.Submit("done", "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Gen("done", 0, "h0"); err != nil {
		t.Fatal(err)
	}
	if err := l.Final("done", "done"); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit("live", "acme", 2, json.RawMessage(`{"layouts":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Gen("live", 1, "h1"); err != nil {
		t.Fatal(err)
	}
	if g := o.Gauge("campaignd_wal_live_campaigns", "").Value(); g != 1 {
		t.Fatalf("live gauge %v, want 1", g)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if v := o.Counter("campaignd_wal_compactions_total", "").Value(); v != 1 {
		t.Fatalf("compactions %d, want 1", v)
	}
	// The compacted file holds exactly the live campaign.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"done"`) {
		t.Fatalf("compacted log still mentions finalized campaign:\n%s", data)
	}
	// Still appendable after compaction.
	if err := l.Gen("live", 0, "h0"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, states := openLog(t, path, nil)
	if len(states) != 1 {
		t.Fatalf("replayed %d campaigns after compact, want 1", len(states))
	}
	s := states[0]
	if s.ID != "live" || s.Tenant != "acme" || s.Priority != 2 || !s.Live() {
		t.Fatalf("compacted state %+v", s)
	}
	if s.Gens[0] != "h0" || s.Gens[1] != "h1" {
		t.Fatalf("compacted gens %v", s.Gens)
	}
}

// TestResubmitReopensFinalizedCampaign: a submit for a finalized id
// makes it live again with the new spec but keeps earlier generation
// records — the campaign is the same deterministic function, so they
// still hold.
func TestResubmitReopensFinalizedCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, _ := openLog(t, path, nil)
	if err := l.Submit("c1", "a", 0, json.RawMessage(`{"layouts":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Gen("c1", 0, "h0"); err != nil {
		t.Fatal(err)
	}
	if err := l.Final("c1", "done"); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit("c1", "a", 1, json.RawMessage(`{"layouts":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, states := openLog(t, path, nil)
	if len(states) != 1 {
		t.Fatalf("replayed %d campaigns, want 1", len(states))
	}
	s := states[0]
	if !s.Live() || s.Priority != 1 || string(s.Spec) != `{"layouts":4}` {
		t.Fatalf("reopened state %+v", s)
	}
	if s.Gens[0] != "h0" {
		t.Fatalf("reopened gens %v, want generation 0 kept", s.Gens)
	}
}

// TestOldTaskRecordsReplayAndCompactAway: logs written before per-layout
// "task" records were dropped still open. Replay skips those records, the
// campaign they belong to stays live, and compaction drops them.
func TestOldTaskRecordsReplayAndCompactAway(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	content := `{"op":"submit","campaign":"c1","tenant":"acme","spec":{"layouts":3},"layout":0}` + "\n" +
		`{"op":"task","campaign":"c1","layout":0,"state":"completed"}` + "\n" +
		`{"op":"task","campaign":"c1","layout":2,"state":"failed"}` + "\n" +
		`{"op":"gen","campaign":"c1","layout":0,"state":"h0"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	l, states := openLog(t, path, o)
	if len(states) != 1 || states[0].ID != "c1" || !states[0].Live() || states[0].Gens[0] != "h0" {
		t.Fatalf("replay of a log with task records: %+v", states)
	}
	if g := o.Gauge("campaignd_wal_live_campaigns", "").Value(); g != 1 {
		t.Fatalf("live gauge %v, want 1", g)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"op":"task"`) {
		t.Fatalf("compacted log keeps task records:\n%s", data)
	}
	_, states = openLog(t, path, nil)
	if len(states) != 1 || !states[0].Live() || states[0].Tenant != "acme" || states[0].Gens[0] != "h0" {
		t.Fatalf("replay after compaction: %+v", states)
	}
}
