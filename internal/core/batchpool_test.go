package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"interferometry/internal/machine"
)

// TestBatchPoolBoundedAndAged: the pool keeps one idle engine per
// processor the process started with and drops the rest, lends a pooled
// engine only to a walk it fits, dropping one that does not, and gives
// its engines up once collection cycles pass without a walk.
func TestBatchPoolBoundedAndAged(t *testing.T) {
	// No collection, so no aging, until the last step; other tests'
	// engines can go, the pool being a cache.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for len(batchPool) > 0 {
		select {
		case <-batchPool:
		default:
		}
	}
	mcfg := machine.XeonE5440()
	for i := 0; i < cap(batchPool)+2; i++ {
		b, err := machine.NewBatch(mcfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		putBatch(b)
	}
	if len(batchPool) != cap(batchPool) {
		t.Fatalf("%d idle engines, want %d", len(batchPool), cap(batchPool))
	}
	b, err := getBatch(mcfg, 8)
	if err != nil || b.MaxLanes() != 8 || len(batchPool) != cap(batchPool)-1 {
		t.Fatalf("an 8-lane walk did not get a pooled engine (err %v)", err)
	}
	putBatch(b)
	if b, err = getBatch(mcfg, 16); err != nil {
		t.Fatal(err)
	}
	if b.MaxLanes() != 16 || len(batchPool) != cap(batchPool)-1 {
		t.Fatalf("a 16-lane walk got a %d-lane engine, %d left idle; want a fresh 16-lane one and the narrow one dropped", b.MaxLanes(), len(batchPool))
	}

	// No walk from here on: a collection cycle empties the pool.
	deadline := time.Now().Add(10 * time.Second)
	for len(batchPool) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d engines still idle after collections without a walk", len(batchPool))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
