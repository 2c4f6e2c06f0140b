package campaignd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"interferometry/internal/experiments"
)

// TestWorkerShare: a loop's share of a campaign is its fair share of
// the tasks the campaign queues at once, split over the worker's loops
// but never fewer than two, and capped at 32.
func TestWorkerShare(t *testing.T) {
	search := JobSpec{Benchmark: "429.mcf", Layouts: 4, Kind: KindSearch, Search: &SearchSpec{Population: 5, Generations: 2}}
	for _, c := range []struct {
		parallel int
		spec     JobSpec
		want     int
	}{
		{1, JobSpec{Layouts: 1}, 1},
		{1, JobSpec{Layouts: 16}, 8},
		{2, JobSpec{Layouts: 16}, 8},
		{4, JobSpec{Layouts: 16}, 4},
		{1, JobSpec{Layouts: 100}, 32},
		{1, JobSpec{}, (experiments.Small.Layouts + 1) / 2},
		{1, search, 3},
	} {
		w := &Worker{Parallel: c.parallel}
		if got := w.share(leaseResponse{Spec: c.spec, Scale: experiments.Small}); got != c.want {
			t.Errorf("Parallel %d, spec %+v: share %d, want %d", c.parallel, c.spec, got, c.want)
		}
	}
}

// TestGatherTakesCampaignShares: a loop tops its lease group up until
// the last task's campaign holds its share, so a lone loop takes half of
// a campaign and leaves the rest for whichever loop polls next. A group
// may span campaigns, each part within its own share.
func TestGatherTakesCampaignShares(t *testing.T) {
	srv, err := New(Config{NoLocalWorkers: true})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Kill()
		hs.Close()
	})
	var ids []string
	for k, layouts := range []int{16, 5, 4} {
		st, err := srv.Submit(JobSpec{Benchmark: "429.mcf", Layouts: layouts, Budget: 60_000, BaseSeed: uint64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Shares: 8 of the 16-layout campaign, 3 of the 5, 2 of the 4.
	want := [][]int{{8, 0, 0}, {8, 0, 0}, {0, 3, 0}, {0, 2, 2}, {0, 0, 2}}
	w := &Worker{Coordinator: hs.URL, HTTP: hs.Client()}
	ctx := context.Background()
	for g, parts := range want {
		first, status, err := w.lease(ctx)
		if err != nil || status != http.StatusOK {
			t.Fatalf("group %d: lease status %d, err %v", g, status, err)
		}
		got := make([]int, len(ids))
		for _, lr := range w.gather(ctx, first) {
			for k, id := range ids {
				if lr.CampaignID == id {
					got[k]++
				}
			}
		}
		if !reflect.DeepEqual(got, parts) {
			t.Errorf("group %d holds %v tasks of each campaign, want %v", g, got, parts)
		}
	}
}
