// Package heap provides the simulated-heap allocators used to perturb
// data placement. The paper uses "a custom memory allocator based on
// DieHard that essentially assigns random addresses to heap-allocated
// objects to elicit perturbations due to conflict misses in the data
// caches" (§4.4, §1.3). Here the DieHard-style allocator places objects in
// uniformly random free slots of power-of-two size-class regions kept at
// most half full, driven by a seeded PRNG so that a heap seed reproduces a
// placement exactly. A sequential bump allocator provides the
// deterministic, layout-insensitive baseline.
package heap

import (
	"fmt"

	"interferometry/internal/isa"
	"interferometry/internal/xrand"
)

// Allocator places abstract data objects at concrete simulated addresses.
// Implementations must be deterministic functions of their construction
// parameters and the call sequence.
type Allocator interface {
	// Alloc places the object and returns its base address. Allocating a
	// live object is a churn operation: the object is freed and placed
	// anew (possibly elsewhere).
	Alloc(obj isa.ObjectID, size uint64) uint64
	// Free releases the object's storage. Freeing a dead object is a
	// no-op.
	Free(obj isa.ObjectID)
	// Base returns the object's current base address; ok is false if the
	// object has never been allocated. For a freed object, Base keeps
	// returning its last address (a replayed dangling access still needs
	// somewhere to go) with ok true.
	Base(obj isa.ObjectID) (uint64, bool)
	// Live reports whether the object is currently allocated.
	Live(obj isa.ObjectID) bool
}

// Config sets the simulated address range for a heap.
type Config struct {
	// Base is the first heap address. Zero means 0x20000000, above the
	// linker's default data segment.
	Base uint64
	// MinSlot is the smallest slot size. Zero means 16.
	MinSlot uint64
}

func (c *Config) fillDefaults() {
	if c.Base == 0 {
		c.Base = 0x20000000
	}
	if c.MinSlot == 0 {
		c.MinSlot = 16
	}
}

// Randomized is the DieHard-style allocator.
type Randomized struct {
	cfg     Config
	rng     xrand.Rand
	next    uint64 // bump pointer for carving new class regions
	classes map[uint64]*sizeClass
	objs    []placement
	// pool holds retired regions from before a Reset; grow reuses their
	// backing storage instead of allocating, so a reset allocator reaches
	// steady state without fresh allocations.
	pool []*region
}

// placement is indexed by ObjectID; known distinguishes an object that has
// never been allocated from one placed at address zero.
type placement struct {
	base  uint64
	size  uint64
	class uint64
	known bool
	live  bool
}

// ensurePlacement grows objs to cover obj and returns its slot. Growth
// doubles capacity so repeated runs over the same program allocate only on
// first use.
func ensurePlacement(objs *[]placement, obj isa.ObjectID) *placement {
	if n := int(obj) + 1; n > len(*objs) {
		if n <= cap(*objs) {
			*objs = (*objs)[:n]
		} else {
			grown := make([]placement, n, 2*n)
			copy(grown, *objs)
			*objs = grown
		}
	}
	return &(*objs)[obj]
}

type sizeClass struct {
	slot    uint64
	regions []*region
	free    int // total free slots across regions
	total   int
}

type region struct {
	base  uint64
	slots int
	used  []bool
	free  int
}

// NewRandomized returns a randomizing allocator seeded by seed.
func NewRandomized(seed uint64, cfg Config) *Randomized {
	a := &Randomized{classes: make(map[uint64]*sizeClass)}
	a.Reset(seed, cfg)
	return a
}

// Reset restores the allocator to the state NewRandomized(seed, cfg) would
// produce, reusing the existing storage: the address sequence after a Reset
// is bit-identical to that of a freshly constructed allocator.
func (a *Randomized) Reset(seed uint64, cfg Config) {
	cfg.fillDefaults()
	a.cfg = cfg
	a.rng.Reseed(xrand.Mix(seed, 0x68656170)) // "heap"
	a.next = cfg.Base
	for _, sc := range a.classes {
		a.pool = append(a.pool, sc.regions...)
		sc.regions = sc.regions[:0]
		sc.free, sc.total = 0, 0
	}
	for i := range a.objs {
		a.objs[i] = placement{}
	}
}

// classSlot returns the power-of-two slot size for an allocation.
func (a *Randomized) classSlot(size uint64) uint64 {
	s := a.cfg.MinSlot
	for s < size {
		s <<= 1
	}
	return s
}

// pageBytes is the page granularity of large-object placement. DieHard
// maps large objects at page-aligned addresses, so their cache-set
// alignment varies from placement to placement; without this, a
// power-of-two slot size would pin every large object to the same
// set-index phase and hide exactly the conflict variance heap
// randomization is supposed to elicit.
const pageBytes = 4096

// Alloc implements Allocator.
func (a *Randomized) Alloc(obj isa.ObjectID, size uint64) uint64 {
	p := ensurePlacement(&a.objs, obj)
	if p.known && p.live {
		a.Free(obj)
	}
	slot := a.classSlot(size)
	jitterSlots := uint64(0)
	if slot > pageBytes {
		// Large objects get a double-width slot and land at a random
		// page offset inside it.
		slot *= 2
		jitterSlots = (slot - size) / pageBytes
	}
	sc := a.classes[slot]
	if sc == nil {
		sc = &sizeClass{slot: slot}
		a.classes[slot] = sc
	}
	// DieHard keeps each miniheap at most half full so that random
	// placement has high entropy; grow before that threshold is crossed.
	if sc.free*2 <= sc.total || sc.total == 0 {
		a.grow(sc)
	}
	// Rejection-sample a free slot uniformly over the whole class.
	for {
		idx := a.rng.Intn(sc.total)
		for _, r := range sc.regions {
			if idx < r.slots {
				if !r.used[idx] {
					r.used[idx] = true
					r.free--
					sc.free--
					base := r.base + uint64(idx)*slot
					if jitterSlots > 0 {
						base += a.rng.Uint64n(jitterSlots+1) * pageBytes
					}
					*p = placement{base: base, size: size, class: slot, known: true, live: true}
					return base
				}
				break
			}
			idx -= r.slots
		}
	}
}

// grow adds a region to the class, doubling capacity each time. Retired
// regions from a Reset are reused when large enough.
func (a *Randomized) grow(sc *sizeClass) {
	slots := sc.total
	if slots == 0 {
		slots = 8
	}
	r := a.newRegion(slots)
	r.base = align(a.next, sc.slot)
	a.next = r.base + uint64(slots)*sc.slot
	sc.regions = append(sc.regions, r)
	sc.free += slots
	sc.total += slots
}

// newRegion returns a cleared region with the given slot count, reusing
// pooled storage when possible.
func (a *Randomized) newRegion(slots int) *region {
	for i, r := range a.pool {
		if cap(r.used) >= slots {
			a.pool[i] = a.pool[len(a.pool)-1]
			a.pool = a.pool[:len(a.pool)-1]
			r.used = r.used[:slots]
			for j := range r.used {
				r.used[j] = false
			}
			r.slots = slots
			r.free = slots
			return r
		}
	}
	return &region{slots: slots, used: make([]bool, slots), free: slots}
}

// Free implements Allocator.
func (a *Randomized) Free(obj isa.ObjectID) {
	if int(obj) >= len(a.objs) {
		return
	}
	p := &a.objs[obj]
	if !p.known || !p.live {
		return
	}
	sc := a.classes[p.class]
	for _, r := range sc.regions {
		if p.base >= r.base && p.base < r.base+uint64(r.slots)*sc.slot {
			idx := int((p.base - r.base) / sc.slot)
			if r.used[idx] {
				r.used[idx] = false
				r.free++
				sc.free++
			}
			break
		}
	}
	p.live = false
}

// Base implements Allocator.
func (a *Randomized) Base(obj isa.ObjectID) (uint64, bool) {
	if int(obj) >= len(a.objs) || !a.objs[obj].known {
		return 0, false
	}
	return a.objs[obj].base, true
}

// Live implements Allocator.
func (a *Randomized) Live(obj isa.ObjectID) bool {
	return int(obj) < len(a.objs) && a.objs[obj].live
}

// Bump is the sequential baseline allocator: objects are placed one after
// another with 16-byte alignment and storage is never reused, so the
// placement is identical for every seed — the "allocator noise off"
// configuration of an experiment.
type Bump struct {
	cfg  Config
	next uint64
	objs []placement
}

// NewBump returns a bump allocator.
func NewBump(cfg Config) *Bump {
	b := &Bump{}
	b.Reset(cfg)
	return b
}

// Reset restores the allocator to the state NewBump(cfg) would produce,
// reusing the existing placement storage.
func (b *Bump) Reset(cfg Config) {
	cfg.fillDefaults()
	b.cfg = cfg
	b.next = cfg.Base
	for i := range b.objs {
		b.objs[i] = placement{}
	}
}

// Alloc implements Allocator.
func (b *Bump) Alloc(obj isa.ObjectID, size uint64) uint64 {
	p := ensurePlacement(&b.objs, obj)
	base := align(b.next, 16)
	b.next = base + size
	// Churn on a bump allocator re-places at a fresh address too; the
	// address stream stays deterministic.
	*p = placement{base: base, size: size, known: true, live: true}
	return base
}

// Free implements Allocator.
func (b *Bump) Free(obj isa.ObjectID) {
	if int(obj) < len(b.objs) {
		b.objs[obj].live = false
	}
}

// Base implements Allocator.
func (b *Bump) Base(obj isa.ObjectID) (uint64, bool) {
	if int(obj) >= len(b.objs) || !b.objs[obj].known {
		return 0, false
	}
	return b.objs[obj].base, true
}

// Live implements Allocator.
func (b *Bump) Live(obj isa.ObjectID) bool {
	return int(obj) < len(b.objs) && b.objs[obj].live
}

// Mode selects the allocator used by a campaign.
type Mode uint8

// Allocator modes.
const (
	// ModeBump uses the sequential allocator: data layout is identical
	// across heap seeds (code reordering only, the paper's default).
	ModeBump Mode = iota
	// ModeRandomized uses the DieHard-style allocator (§1.3 experiments).
	ModeRandomized
)

func (m Mode) String() string {
	switch m {
	case ModeBump:
		return "bump"
	case ModeRandomized:
		return "randomized"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// New constructs the allocator for a mode.
func New(m Mode, seed uint64, cfg Config) Allocator {
	if m == ModeRandomized {
		return NewRandomized(seed, cfg)
	}
	return NewBump(cfg)
}

func align(addr, a uint64) uint64 {
	if a <= 1 {
		return addr
	}
	return (addr + a - 1) &^ (a - 1)
}

// Compile-time interface checks.
var (
	_ Allocator = (*Randomized)(nil)
	_ Allocator = (*Bump)(nil)
)
