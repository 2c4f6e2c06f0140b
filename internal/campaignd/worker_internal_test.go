package campaignd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"interferometry/internal/experiments"
)

// TestWorkerShare: a loop's share of a campaign is its fair share of
// the tasks the campaign queues at once, split over the process's loops
// but never fewer than two, and capped at 32.
func TestWorkerShare(t *testing.T) {
	search := JobSpec{Benchmark: "429.mcf", Layouts: 4, Kind: KindSearch, Search: &SearchSpec{Population: 5, Generations: 2}}
	for _, c := range []struct {
		loops int
		spec  JobSpec
		want  int
	}{
		{1, JobSpec{Layouts: 1}, 1},
		{1, JobSpec{Layouts: 16}, 8},
		{2, JobSpec{Layouts: 16}, 8},
		{4, JobSpec{Layouts: 16}, 4},
		{1, JobSpec{Layouts: 100}, 32},
		{1, JobSpec{}, (experiments.Small.Layouts + 1) / 2},
		{1, search, 3},
	} {
		if got := share(c.spec, experiments.Small, c.loops); got != c.want {
			t.Errorf("%d loops, spec %+v: share %d, want %d", c.loops, c.spec, got, c.want)
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

// TestLocalLoopsTakeCampaignShares: a coordinator's own task loop
// leases its groups by the remote worker's rule (pop, then gather), so
// on TestGatherTakesCampaignShares's campaigns a lone local loop leases
// the same groups a lone remote loop does.
func TestLocalLoopsTakeCampaignShares(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	var camps []*campaign
	for k, layouts := range []int{16, 5, 4} {
		st, err := srv.Submit(JobSpec{Benchmark: "429.mcf", Layouts: layouts, Budget: 60_000, BaseSeed: uint64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		c, ok := srv.lookup(st.ID)
		if !ok {
			t.Fatalf("campaign %s not found", st.ID)
		}
		camps = append(camps, c)
	}

	// Before Start the test is the only task loop.
	want := [][]int{{8, 0, 0}, {8, 0, 0}, {0, 3, 0}, {0, 2, 2}, {0, 0, 2}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for g, parts := range want {
		first, err := srv.pop(ctx)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		got := make([]int, len(camps))
		for _, lease := range srv.gather(first) {
			for k, c := range camps {
				if lease.Payload().camp == c {
					got[k]++
				}
			}
		}
		if !reflect.DeepEqual(got, parts) {
			t.Errorf("group %d holds %v tasks of each campaign, want %v", g, got, parts)
		}
	}
}

// TestHeartbeatOutlastsStuckRequest: a heartbeat request that never
// answers gives up when its beat's period ends, so the leases after it
// in the group keep being beaten instead of expiring behind it.
func TestHeartbeatOutlastsStuckRequest(t *testing.T) {
	var stuck atomic.Bool
	var beatsB atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var ref leaseRef
		if err := json.NewDecoder(r.Body).Decode(&ref); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if ref.LeaseID == "a" && stuck.CompareAndSwap(false, true) {
			<-r.Context().Done() // the first request for a never answers
			return
		}
		if ref.LeaseID == "b" {
			beatsB.Add(1)
		}
		rw.WriteHeader(http.StatusNoContent)
	}))
	defer hs.Close()
	w := &Worker{Coordinator: hs.URL}
	stop := w.heartbeat(context.Background(), []leaseResponse{{LeaseID: "a", LeaseMS: 30}, {LeaseID: "b", LeaseMS: 30}})
	defer stop()
	for deadline := time.Now().Add(10 * time.Second); beatsB.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("lease b beaten %d times in 10 s behind a stuck request", beatsB.Load())
		}
	}
}
