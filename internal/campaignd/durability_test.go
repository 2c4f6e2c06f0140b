package campaignd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"interferometry/internal/campaignd"
	"interferometry/internal/results"
)

// TestKillRestartResumesFromWAL is the durability acceptance test: a
// coordinator hard-killed (no drain, no flush) after acknowledging a
// campaign must, on restart against the same WAL dir, resume that
// campaign on its own and finish it byte-identical to a clean run —
// and once the campaign has finalized, a further restart must NOT
// resurrect it, but a resubmission restores it wholesale from its
// checkpoint.
func TestKillRestartResumesFromWAL(t *testing.T) {
	spec := testSpec(6)
	var want bytes.Buffer
	if err := results.WriteMeasurementsCSV(&want, cleanDataset(t, spec)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := campaignd.Config{
		Workers:        2,
		WALDir:         dir,
		CheckpointRoot: filepath.Join(dir, "checkpoints"),
	}

	// Phase 1: admit durably, then die. The workers are never started,
	// so the kill is guaranteed to land mid-campaign with zero progress.
	srv1, err := campaignd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != campaignd.StateRunning {
		t.Fatalf("fresh campaign state %s, want %s", st.State, campaignd.StateRunning)
	}
	srv1.Kill()

	// Phase 2: a restart on the same WAL dir must already know the
	// campaign — no resubmission — and run it to the clean bytes.
	srv2, err := campaignd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	hs2 := httptest.NewServer(srv2.Handler())
	client2 := &campaignd.Client{Base: hs2.URL, HTTP: hs2.Client()}
	ctx := context.Background()
	if _, err := client2.Status(ctx, st.ID); err != nil {
		t.Fatalf("restarted coordinator does not know campaign %s: %v", st.ID, err)
	}
	if done := waitDone(t, client2, st.ID); done.State != campaignd.StateDone {
		t.Fatalf("resumed campaign ended %s: %s", done.State, done.Error)
	}
	blob, err := client2.Measurements(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want.Bytes()) {
		t.Errorf("resumed measurements differ from clean run (%d vs %d bytes)", len(blob), want.Len())
	}
	var stream bytes.Buffer
	if err := client2.StreamCSV(ctx, "/campaigns/"+st.ID+"/measurements", 2, &stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), blob) {
		t.Errorf("streamed pages differ from the blob (%d vs %d bytes)", stream.Len(), len(blob))
	}
	srv2.Kill() // the final was journaled before this kill
	hs2.Close()

	// Phase 3: the campaign finalized in the WAL, so the third
	// coordinator must not resume it; resubmitting restores it from the
	// checkpoint without re-running a single layout.
	srv3, err := campaignd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv3.Start()
	hs3 := httptest.NewServer(srv3.Handler())
	t.Cleanup(func() {
		srv3.Drain()
		hs3.Close()
	})
	client3 := &campaignd.Client{Base: hs3.URL, HTTP: hs3.Client()}
	if _, err := client3.Status(ctx, st.ID); err == nil {
		t.Fatalf("finalized campaign %s was resurrected after restart", st.ID)
	}
	st3, err := client3.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != st.ID {
		t.Errorf("resubmission created campaign %s, want %s", st3.ID, st.ID)
	}
	if st3.State != campaignd.StateDone || st3.Restored != spec.Layouts {
		t.Errorf("resubmission state %s with %d restored, want %s with all %d from checkpoint",
			st3.State, st3.Restored, campaignd.StateDone, spec.Layouts)
	}
	meas3, err := client3.Measurements(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(meas3, want.Bytes()) {
		t.Errorf("checkpoint-restored measurements differ from clean run")
	}
}

// TestTenantQuotaShedsWithRetryAfterOverHTTP pins the two-tenant
// admission contract: a flood tenant over its task quota is shed with
// 429 + Retry-After, while another tenant's submissions still admit —
// saturation is per tenant, not global. A campaign larger than the
// quota itself is refused outright, without a retry hint. Tenancy is
// also identity: the same spec shape under two tenants is two campaigns.
func TestTenantQuotaShedsWithRetryAfterOverHTTP(t *testing.T) {
	// No local workers: queued tasks stay queued, so occupancy is exact.
	_, client := startService(t, campaignd.Config{
		Workers:            0,
		NoLocalWorkers:     true,
		QueueCapacity:      64,
		MaxQueuedPerTenant: 4,
	})
	ctx := context.Background()

	flood := testSpec(6)
	flood.Tenant = "flood"
	var re *campaignd.RetryError
	if _, err := client.Submit(ctx, flood); err == nil || errors.As(err, &re) {
		t.Fatalf("6-task submit under a 4-task quota returned %v, want a refusal without retry", err)
	}

	flood.Layouts = 4
	fst, err := client.Submit(ctx, flood)
	if err != nil {
		t.Fatalf("in-quota flood submit: %v", err)
	}

	flood2 := testSpec(2)
	flood2.Tenant = "flood"
	if _, err := client.Submit(ctx, flood2); !errors.As(err, &re) {
		t.Fatalf("submit past a saturated tenant quota returned %v, want 429 RetryError", err)
	} else if re.After <= 0 {
		t.Fatalf("shed submission carried no Retry-After hint")
	}

	// The flood tenant sitting at its quota must not starve anyone else.
	probe := testSpec(4)
	probe.Tenant = "probe"
	pst, err := client.Submit(ctx, probe)
	if err != nil {
		t.Fatalf("probe tenant shed by flood tenant's saturation: %v", err)
	}
	if pst.ID == fst.ID {
		t.Errorf("identical specs under different tenants shared campaign %s", pst.ID)
	}
	if pst.Tenant != "probe" {
		t.Errorf("campaign attributed to %q, want probe", pst.Tenant)
	}

	// /queuez exposes each tenant's occupancy against its quota.
	res, err := http.Get(client.Base + "/queuez")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var qz struct {
		Tenants map[string]struct {
			Queued int `json:"queued"`
			Quota  int `json:"quota"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(res.Body).Decode(&qz); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"flood", "probe"} {
		tz, ok := qz.Tenants[tenant]
		if !ok || tz.Queued != 4 || tz.Quota != 4 {
			t.Errorf("/queuez tenants[%s] = %+v (present %v), want queued 4 of quota 4", tenant, tz, ok)
		}
	}
}

// TestTenantHeaderAttributesAndConflicts covers the X-Tenant header: it
// attributes a headerless spec, and a conflicting spec tenant is a 400.
func TestTenantHeaderAttributesAndConflicts(t *testing.T) {
	_, client := startService(t, campaignd.Config{Workers: 0, NoLocalWorkers: true})

	post := func(spec campaignd.JobSpec, tenant string) *http.Response {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, client.Base+"/campaigns", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := post(testSpec(3), "acme")
	defer res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("header-attributed submit returned %s, want 202", res.Status)
	}
	var st campaignd.Status
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "acme" {
		t.Errorf("X-Tenant header attributed campaign to %q, want acme", st.Tenant)
	}

	conflicted := testSpec(3)
	conflicted.Tenant = "zeta"
	res2 := post(conflicted, "acme")
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusBadRequest {
		t.Errorf("conflicting X-Tenant and spec tenant returned %s, want 400", res2.Status)
	}
}

// TestTenantCampaignCapSheds pins MaxCampaignsPerTenant: a tenant at
// its running-campaign cap is shed on NEW campaigns, but resubmitting a
// running spec returns its live status (never a quota error, never a
// duplicate), and other tenants are unaffected.
func TestTenantCampaignCapSheds(t *testing.T) {
	_, client := startService(t, campaignd.Config{
		Workers:               0,
		NoLocalWorkers:        true,
		MaxCampaignsPerTenant: 1,
	})
	ctx := context.Background()

	a := testSpec(2)
	a.Tenant = "acme"
	ast, err := client.Submit(ctx, a)
	if err != nil {
		t.Fatal(err)
	}

	b := testSpec(3)
	b.Tenant = "acme"
	var re *campaignd.RetryError
	if _, err := client.Submit(ctx, b); !errors.As(err, &re) {
		t.Fatalf("second campaign under a 1-campaign cap returned %v, want 429 RetryError", err)
	}

	// The running campaign itself stays reachable through resubmission.
	again, err := client.Submit(ctx, a)
	if err != nil {
		t.Fatalf("resubmitting the running campaign: %v", err)
	}
	if again.ID != ast.ID || again.State != campaignd.StateRunning {
		t.Errorf("resubmission returned %s (%s), want live status of %s", again.ID, again.State, ast.ID)
	}

	z := testSpec(3)
	z.Tenant = "zeta"
	if _, err := client.Submit(ctx, z); err != nil {
		t.Errorf("zeta shed by acme's campaign cap: %v", err)
	}
}

// TestStreamedPagesConcatenateToBlob: paging a finished dataset by any
// page size reproduces the one-shot blob byte for byte, for both the
// provenance dataset and the canonical measurements, and the paging
// headers describe the pages correctly.
func TestStreamedPagesConcatenateToBlob(t *testing.T) {
	spec := testSpec(5)
	_, client := startService(t, campaignd.Config{Workers: 2})
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}

	blob, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, pageSize := range []int{1, 2, 7} {
		var stream bytes.Buffer
		if err := client.StreamResult(ctx, st.ID, pageSize, &stream); err != nil {
			t.Fatalf("pageSize %d: %v", pageSize, err)
		}
		if !bytes.Equal(stream.Bytes(), blob) {
			t.Errorf("pageSize %d: streamed result differs from blob (%d vs %d bytes)", pageSize, stream.Len(), len(blob))
		}
	}

	meas, err := client.Measurements(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var mstream bytes.Buffer
	if err := client.StreamCSV(ctx, "/campaigns/"+st.ID+"/measurements", 2, &mstream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mstream.Bytes(), meas) {
		t.Errorf("streamed measurements differ from blob (%d vs %d bytes)", mstream.Len(), len(meas))
	}

	// A mid-stream page: headerless rows, total advertised, next page named.
	res, err := http.Get(client.Base + "/campaigns/" + st.ID + "/result?offset=2&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if got := res.Header.Get("X-Total-Rows"); got != "5" {
		t.Errorf("X-Total-Rows = %q, want 5", got)
	}
	if got := res.Header.Get("X-Next-Offset"); got != "4" {
		t.Errorf("X-Next-Offset = %q, want 4", got)
	}
	var page bytes.Buffer
	if _, err := page.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, page.Bytes()) {
		t.Errorf("mid-stream page is not a contiguous slice of the blob")
	}
	if bytes.HasPrefix(page.Bytes(), blob[:bytes.IndexByte(blob, '\n')+1]) {
		t.Errorf("mid-stream page repeated the CSV header")
	}

	// The final page must not advertise a successor.
	res2, err := http.Get(client.Base + "/campaigns/" + st.ID + "/result?offset=4&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if got := res2.Header.Get("X-Next-Offset"); got != "" {
		t.Errorf("final page advertised X-Next-Offset %q", got)
	}
}

// TestConcurrentDuplicateSubmissionsAdmitOnce: racing submissions of
// the identical spec (WAL on, so each admission would journal) must
// converge on ONE campaign — the admitting reservation holds duplicates
// until the winner owns the ID.
func TestConcurrentDuplicateSubmissionsAdmitOnce(t *testing.T) {
	dir := t.TempDir()
	srv, client := startService(t, campaignd.Config{
		Workers:        2,
		WALDir:         dir,
		CheckpointRoot: filepath.Join(dir, "checkpoints"),
	})
	spec := testSpec(4)

	const racers = 8
	ids := make([]string, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := srv.Submit(spec)
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("racer %d admitted campaign %s, racer 0 got %s", i, ids[i], ids[0])
		}
	}
	if st := waitDone(t, client, ids[0]); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}

	res, err := http.Get(client.Base + "/queuez")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var qz struct {
		Campaigns int `json:"campaigns"`
	}
	if err := json.NewDecoder(res.Body).Decode(&qz); err != nil {
		t.Fatal(err)
	}
	if qz.Campaigns != 1 {
		t.Errorf("%d campaigns exist after %d racing duplicate submissions, want 1", qz.Campaigns, racers)
	}
}
