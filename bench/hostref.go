package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host reference is a fixed piece of work that belongs to the
// benchmark, not to the program: an LRU cache model of tags walked by a
// pseudo-random address stream, on as many goroutines as the campaigns
// use. On a shared virtual machine the host's speed moves by a factor of
// two within minutes, and CPU time moves with it, so a raw time says as
// much about the neighbours as about the program. One reference unit runs
// next to every operation and every set-up, and their times are quoted for
// a host on which a unit takes refWall of wall clock and refCPU of CPU. A
// change to the program cannot move the reference, so the scaled times
// still move with the program.
//
// The model's tables, 16 MiB per goroutine, were sized by measurement
// (README.md): when neighbours crowd the shared caches, a model that fits
// in a core's own cache slows down less than the campaigns do, and one of
// this size about as much.

const (
	refSets = 1 << 19 // sets of each goroutine's cache model: 16 MiB of tags
	refWays = 8
	// refAccesses is one reference unit, a few milliseconds of work, cut
	// into refChunks chunks.
	refAccesses = 150_000
	refChunks   = 30
	// refWall and refCPU are one reference unit on the host the scaled
	// times are quoted for.
	refWall = 3 * time.Millisecond
	refCPU  = 6 * time.Millisecond
)

// refBytes is the memory the reference's tables hold.
const refBytes = workers * refSets * refWays * 4

type hostRef struct {
	tabs [workers][]uint32
	sink [workers]uint64
	// wall and cpus hold every unit's wall and CPU time, s.
	wall, cpus []float64
}

// newHostRef maps the tables outside the Go heap, so that the collector's
// pacing does not count them, and touches every page, so that they are
// resident for the whole run and peakRSSMiB can leave them out.
func newHostRef() (*hostRef, error) {
	h := &hostRef{}
	for g := range h.tabs {
		mem, err := syscall.Mmap(-1, 0, refBytes/workers, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, err
		}
		h.tabs[g] = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refSets*refWays)
		for i := 0; i < len(h.tabs[g]); i += 1024 {
			h.tabs[g][i] = 0
		}
	}
	return h, nil
}

func (h *hostRef) close() {
	for g, t := range h.tabs {
		if t != nil {
			syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&t[0])), refBytes/workers))
			h.tabs[g] = nil
		}
	}
}

// unit runs one reference unit and returns the factors that quote a wall
// time and a CPU time measured next to it for the reference host. The
// goroutines take chunks from a shared counter, the way campaign workers
// take layouts, so a core that stalls hands its share to the other.
func (h *hostRef) unit() (wall, cpu float64) {
	cpu0, t0 := cpuTime(), time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := range h.tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1); c <= refChunks; c = next.Add(1) {
				h.sink[g] += refWalk(h.tabs[g], uint64(c), refAccesses/refChunks)
			}
		}()
	}
	wg.Wait()
	w, c := time.Since(t0).Seconds(), cpuTime()-cpu0
	h.wall, h.cpus = append(h.wall, w), append(h.cpus, c)
	return refWall.Seconds() / w, refCPU.Seconds() / c
}

// scale is the run's median of the units' factors.
func (h *hostRef) scale() (wall, cpu float64) {
	return refWall.Seconds() / quantile(h.wall, 0.5), refCPU.Seconds() / quantile(h.cpus, 0.5)
}

// refWalk runs n accesses through an 8-way LRU model of refSets sets:
// runs of sequential lines, jumps within a hot 32 MiB and jumps across a
// GiB. It returns the hit count, so the work cannot be optimised away.
func refWalk(tab []uint32, x uint64, n int) uint64 {
	var hits uint64
	addr := uint64(0)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		switch r := x >> 60; {
		case r < 2:
			addr = (x >> 20) & (1<<30 - 1)
		case r < 6:
			addr = (x >> 24) & (1<<25 - 1)
		default:
			addr += 64
		}
		line := addr >> 6
		ways := tab[(line%refSets)*refWays:][:refWays]
		tag := uint32(line/refSets) + 1
		w := 0
		for w < refWays && ways[w] != tag {
			w++
		}
		if w < refWays {
			hits++
		} else {
			w = refWays - 1
		}
		copy(ways[1:w+1], ways[:w])
		ways[0] = tag
	}
	return hits
}
