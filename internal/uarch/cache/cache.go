// Package cache implements the set-associative cache models of the
// machine substrate: the Xeon E5440's 32KB 8-way L1 instruction and data
// caches and its large shared L2 (§5.4). Caches are address-indexed — "a
// 128-set instruction cache with 64 byte blocks would likely use bits 6
// through 12 of the instruction address as the set index" (§4.1) — which
// is precisely why code and data placement perturb their miss counts.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
}

// Validate checks the geometry: sizes must be powers of two and must
// divide evenly into sets.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return errors.New("cache: nonpositive geometry")
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets == 0 || sets*c.Ways != lines {
		return fmt.Errorf("cache %s: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg       Config
	lineShift uint
	tagShift  uint // log2(sets): a line's tag is line >> tagShift
	setMask   uint64
	ways      int
	// tags[set*ways+way]; order[set*ways+i] lists ways from MRU to LRU.
	tags  []uint64
	valid []bool
	order []uint8

	hits, misses uint64
}

// New builds a cache. It panics on invalid geometry (configs are
// programmer-supplied constants, not user input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		tags:      make([]uint64, sets*cfg.Ways),
		valid:     make([]bool, sets*cfg.Ways),
		order:     make([]uint8, sets*cfg.Ways),
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			c.order[s*cfg.Ways+w] = uint8(w)
		}
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access looks up the line containing addr, installing it on a miss, and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.tagShift
	base := set * c.ways
	ord := c.order[base : base+c.ways]
	// Search in MRU order.
	for i := 0; i < c.ways; i++ {
		w := int(ord[i])
		if c.valid[base+w] && c.tags[base+w] == tag {
			// Move to front; an MRU hit (the common case: consecutive
			// fetches from one line) already is.
			if i > 0 {
				copy(ord[1:], ord[:i])
				ord[0] = uint8(w)
			}
			c.hits++
			return true
		}
	}
	// Miss: evict LRU way.
	victim := int(ord[c.ways-1])
	c.tags[base+victim] = tag
	c.valid[base+victim] = true
	copy(ord[1:], ord[:c.ways-1])
	ord[0] = uint8(victim)
	c.misses++
	return false
}

// Probe reports whether addr currently hits, without updating state or
// counters.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.tagShift
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// Accesses returns hits+misses.
func (c *Cache) Accesses() uint64 { return c.hits + c.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.Accesses() == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.Accesses())
}

// ResetCounters zeroes the hit/miss counters without flushing contents,
// for warmup-then-measure protocols.
func (c *Cache) ResetCounters() { c.hits, c.misses = 0, 0 }

// Flush invalidates all lines and zeroes counters.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.ResetCounters()
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// LinesSpanned returns how many cache lines the byte range [addr,
// addr+size) touches.
func (c *Cache) LinesSpanned(addr, size uint64) int {
	if size == 0 {
		return 0
	}
	first := addr >> c.lineShift
	last := (addr + size - 1) >> c.lineShift
	return int(last - first + 1)
}

// Prefetch installs the line containing addr without touching the
// hit/miss counters — the behaviour of a hardware prefetcher whose
// traffic is not architecturally visible.
func (c *Cache) Prefetch(addr uint64) {
	hits, misses := c.hits, c.misses
	c.Access(addr)
	c.hits, c.misses = hits, misses
}
