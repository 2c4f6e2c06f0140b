package campaignd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/obs"
	"interferometry/internal/progen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// startNamedWorker launches one remote worker with an identity (and an
// optional tamperer, such as a Liar's Tamper) against the coordinator.
func startNamedWorker(t *testing.T, client *campaignd.Client, id string, tamper func(core.ObsWire, string) core.ObsWire) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &campaignd.Worker{
			Coordinator: client.Base,
			HTTP:        client.HTTP,
			ID:          id,
			Wait:        100 * time.Millisecond,
			Tamper:      tamper,
		}
		w.Run(ctx)
	}()
	stop = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// TestByzantineShardedMatchesSingleProcess is the trust headline: 2 of
// 4 workers lie about every result — flipped counters, stale seeds,
// replays, bad and forged fingerprints — and the campaign still
// finishes byte-identical to a clean single-process run, provenance
// columns included. The liars end quarantined; the honest workers do
// not, and every merged result is theirs; and no requeued task is ever
// charged an attempt (the attempts column would differ otherwise).
func TestByzantineShardedMatchesSingleProcess(t *testing.T) {
	spec := testSpec(8)
	want := datasetCSV(t, cleanDataset(t, spec))

	// Audit everything: the forged-fingerprint lie is structurally valid
	// and only a re-execution can disown it before it merges.
	srv, client := startService(t, campaignd.Config{
		NoLocalWorkers: true,
		AuditRate:      1,
	})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Stage the fleet: liars first, honest workers only once every liar
	// is quarantined, so every lie targets a live campaign.
	liars := []string{"byz-liar0", "byz-liar1"}
	for i, id := range liars {
		startNamedWorker(t, client, id, campaignd.NewLiar(uint64(0xb12+i)).Tamper)
	}
	campaignd.WaitQuarantined(t, srv, liars...)
	honest := []string{"byz-w2", "byz-w3"}
	for _, id := range honest {
		startNamedWorker(t, client, id, nil)
	}

	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("byzantine campaign ended %s: %s", st.State, st.Error)
	}
	if st.Failed != 0 {
		t.Errorf("byzantine campaign failed %d layouts; rejected results must requeue uncharged", st.Failed)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("byzantine dataset differs from single-process run:\n--- byzantine ---\n%s--- clean ---\n%s", got, want)
	}

	health := srv.WorkerHealth()
	for _, id := range liars {
		h := health[id]
		if !h.Quarantined {
			t.Errorf("liar %s not quarantined: %+v", id, h)
		}
		if h.Rejected == 0 {
			t.Errorf("liar %s has no rejected results: %+v", id, h)
		}
	}
	var accepted uint64
	for _, id := range honest {
		h := health[id]
		accepted += h.Accepted
		if h.Quarantined {
			t.Errorf("honest worker %s quarantined: %+v", id, h)
		}
		if h.Rejected != 0 || h.AuditFailed != 0 {
			t.Errorf("honest worker %s blamed: %+v", id, h)
		}
		if h.Score != 1 {
			t.Errorf("honest worker %s score %v, want 1", id, h.Score)
		}
	}
	if accepted != uint64(spec.Layouts) {
		t.Errorf("honest workers had %d results accepted, want all %d layouts", accepted, spec.Layouts)
	}
}

// TestByzantineSearchMatchesSingleProcess runs the same staged fleet
// against an evolutionary search campaign: lying workers must not move
// a byte of the generations CSVs or the summary report.
func TestByzantineSearchMatchesSingleProcess(t *testing.T) {
	spec := searchSpec()
	wantProv, wantCanon, wantReport := searchReference(t, cleanSearch(t, spec))

	srv, client := startService(t, campaignd.Config{
		NoLocalWorkers: true,
		AuditRate:      1,
	})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	liars := []string{"byz-s-liar0", "byz-s-liar1"}
	for i, id := range liars {
		startNamedWorker(t, client, id, campaignd.NewLiar(uint64(0x5ea+i)).Tamper)
	}
	campaignd.WaitQuarantined(t, srv, liars...)
	startNamedWorker(t, client, "byz-s-w2", nil)
	startNamedWorker(t, client, "byz-s-w3", nil)

	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("byzantine search ended %s: %s", st.State, st.Error)
	}
	prov, canon, report := fetchSearch(t, client, st.ID)
	if !bytes.Equal(prov, wantProv) {
		t.Errorf("byzantine generations differ from single-process run:\n--- byzantine ---\n%s--- clean ---\n%s", prov, wantProv)
	}
	if !bytes.Equal(canon, wantCanon) {
		t.Errorf("byzantine canonical generations differ from single-process run:\n--- byzantine ---\n%s--- clean ---\n%s", canon, wantCanon)
	}
	if !bytes.Equal(report, wantReport) {
		t.Errorf("byzantine search report differs from single-process run:\n--- byzantine ---\n%s--- clean ---\n%s", report, wantReport)
	}
	for _, id := range liars {
		if h := srv.WorkerHealth()[id]; !h.Quarantined {
			t.Errorf("liar %s not quarantined: %+v", id, h)
		}
	}
}

// protoLease and protoComplete drive the worker protocol by hand, so a
// test can impersonate a worker and submit precisely crafted results.
type protoLeaseResp struct {
	LeaseID    string `json:"lease_id"`
	CampaignID string `json:"campaign_id"`
	Layout     int    `json:"layout"`
	Attempt    int    `json:"attempt"`
}

func protoPost(t *testing.T, client *campaignd.Client, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.HTTP.Post(client.Base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func protoLease(t *testing.T, client *campaignd.Client, worker string) (protoLeaseResp, int) {
	t.Helper()
	status, body := protoPost(t, client, "/worker/lease", map[string]any{"worker": worker, "wait_ms": 2000})
	var lr protoLeaseResp
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &lr); err != nil {
			t.Fatal(err)
		}
	}
	return lr, status
}

// TestTrustProtocolMetricsGolden walks the whole trust state machine by
// hand — structural rejection, threshold quarantine, audit-caught
// forgery, lease refusal — in a strictly serial schedule, and pins the
// campaignd_attestation_*/campaignd_audit_*/campaignd_quarantine_*
// metrics byte for byte. The campaign still finishes byte-identical to
// the clean run once an honest worker takes over.
func TestTrustProtocolMetricsGolden(t *testing.T) {
	spec := testSpec(3)
	want := datasetCSV(t, cleanDataset(t, spec))

	metrics := obs.NewMetrics()
	srv, client := startService(t, campaignd.Config{
		NoLocalWorkers:      true,
		AuditRate:           1,
		QuarantineThreshold: 2,
		Obs:                 &obs.Observer{Metrics: metrics},
	})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The test executes leased tasks honestly through its own runner —
	// exactly what a real worker derives from the leased spec.
	ps, ok := progen.ByName(spec.Benchmark)
	if !ok {
		t.Fatalf("unknown benchmark %s", spec.Benchmark)
	}
	prog, err := progen.Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := core.NewLayoutRunner(core.CampaignConfig{
		Program:   prog,
		InputSeed: 1,
		Budget:    spec.Budget,
		Layouts:   spec.Layouts,
		Fidelity:  experiments.Small.Fidelity,
		BaseSeed:  0x1f2e3d4c,
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	execute := func(layout int) core.ObsWire {
		var wire core.ObsWire
		if err := runner.Measure(0, []core.Unit{{Layout: layout}}, 1, func(_ int, o core.Observation, err error) {
			if err != nil {
				t.Fatal(err)
			}
			wire = o.Wire()
		}); err != nil {
			t.Fatal(err)
		}
		wire.Fingerprint = wire.Attest(runner.AttestationKey())
		return wire
	}

	// 1. "forger" reports a lied result under a correctly recomputed
	// fingerprint: structurally valid, so only the audit re-execution
	// catches it — and an audit failure condemns immediately.
	lr, status := protoLease(t, client, "forger")
	if status != http.StatusOK {
		t.Fatalf("forger lease status %d", status)
	}
	forged := execute(lr.Layout)
	forged.Cycles ^= 1 << 17
	forged.Fingerprint = forged.Attest(runner.AttestationKey())
	status, body := protoPost(t, client, "/worker/complete",
		map[string]any{"lease_id": lr.LeaseID, "observation": forged})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("forged completion status %d (%s), want 422", status, body)
	}
	if _, status = protoLease(t, client, "forger"); status != http.StatusForbidden {
		t.Errorf("condemned forger leased again: status %d, want 403", status)
	}

	// 2. "fibber" fails the cheap structural check twice — threshold 2 —
	// and crosses into quarantine without any audit.
	for i := 0; i < 2; i++ {
		lr, status = protoLease(t, client, "fibber")
		if status != http.StatusOK {
			t.Fatalf("fibber lease %d status %d", i, status)
		}
		bad := execute(lr.Layout)
		bad.Fingerprint = "pia1:00000000000000000000000000000000"
		status, body = protoPost(t, client, "/worker/complete",
			map[string]any{"lease_id": lr.LeaseID, "observation": bad})
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("bad-fingerprint completion %d status %d (%s), want 422", i, status, body)
		}
	}
	if _, status = protoLease(t, client, "fibber"); status != http.StatusForbidden {
		t.Errorf("quarantined fibber leased again: status %d, want 403", status)
	}
	if n := len(srv.WorkerHealth()); n != 2 {
		t.Errorf("fleet health tracks %d workers, want 2", n)
	}

	// 3. An honest worker finishes the campaign — every completion
	// audited, every audit passing — and the bytes match the clean run:
	// none of the rejected results merged, none of the requeues charged
	// an attempt.
	startNamedWorker(t, client, "honest", nil)
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dataset differs from single-process run:\n--- got ---\n%s--- clean ---\n%s", got, want)
	}

	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var trust strings.Builder
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "campaignd_attestation") ||
			strings.Contains(line, "campaignd_audit") ||
			strings.Contains(line, "campaignd_quarantine") {
			trust.WriteString(line)
			trust.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "trust_metrics.golden.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(trust.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantProm, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if trust.String() != string(wantProm) {
		t.Errorf("trust metrics mismatch:\n--- got ---\n%s--- want ---\n%s", trust.String(), wantProm)
	}
}

// TestQuarantineReleaseUncharged pins the accounting half of the trust
// contract at the queue level through the service: a rejected result's
// task keeps attempt 1 when it is re-leased, because Release charged
// nothing.
func TestQuarantineReleaseUncharged(t *testing.T) {
	spec := testSpec(1)
	_, client := startService(t, campaignd.Config{NoLocalWorkers: true})
	ctx := context.Background()
	if _, err := client.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}

	lr, status := protoLease(t, client, "w-reject")
	if status != http.StatusOK {
		t.Fatalf("lease status %d", status)
	}
	if lr.Attempt != 0 {
		t.Fatalf("first lease attempt %d, want 0", lr.Attempt)
	}
	status, _ = protoPost(t, client, "/worker/complete",
		map[string]any{"lease_id": lr.LeaseID, "observation": core.ObsWire{Fingerprint: "garbage"}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("garbage completion status %d, want 422", status)
	}
	lr2, status := protoLease(t, client, "w-next")
	if status != http.StatusOK {
		t.Fatalf("re-lease status %d", status)
	}
	if lr2.Attempt != 0 {
		t.Errorf("re-leased attempt %d, want 0: the rejection must not charge the task", lr2.Attempt)
	}
	status, _ = protoPost(t, client, "/worker/complete",
		map[string]any{"lease_id": lr.LeaseID, "error": "stale"})
	if status != http.StatusGone {
		t.Errorf("stale lease completion status %d, want 410", status)
	}
}
