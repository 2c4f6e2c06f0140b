package campaignd

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/xrand"
)

// lie is one way a byzantine worker misreports a correctly leased task.
// Unlike an injected fault, which breaks execution, a lie produces a
// structurally complete observation whose bytes are wrong, so it
// exercises the coordinator's verification instead of its retries.
type lie uint8

const (
	// lieBitFlip flips one seeded bit of the cycle counter after the
	// fingerprint was stamped; attestation catches it structurally.
	lieBitFlip lie = iota
	// lieStaleSeed shifts the layout seed, impersonating a result for a
	// different layout (a stale binary, or a neighbouring task's bytes).
	lieStaleSeed
	// lieReplay resends the previous honest observation the liar saw,
	// whatever task it was for. The first call has nothing to replay and
	// falls back to a bit flip.
	lieReplay
	// lieBadFingerprint keeps the honest payload but replaces the
	// fingerprint with seeded garbage.
	lieBadFingerprint
	// lieForge flips a counter bit and re-attests the lie. Attestation
	// cannot catch it (it is a checksum, not a MAC); only the audit
	// sampler's re-execution does.
	lieForge
)

// Liar deterministically corrupts a worker's outgoing observations; a
// Worker whose Tamper is a liar's Tamper method is a byzantine worker.
// Which lie an observation gets is a pure function of (liar seed, layout
// seed), independent of scheduling, retries and worker count, so a
// byzantine soak round tells the same lies every run.
type Liar struct {
	seed uint64
	lies []lie

	mu     sync.Mutex
	last   *core.ObsWire // honest copy of the previous observation, for lieReplay
	counts map[lie]int
}

// NewLiar seeds a liar that cycles through every lie.
func NewLiar(seed uint64) *Liar {
	return &Liar{
		seed:   seed,
		lies:   []lie{lieBitFlip, lieStaleSeed, lieReplay, lieBadFingerprint, lieForge},
		counts: make(map[lie]int),
	}
}

// Tamper returns the lied-about version of an attested observation;
// a forged lie is re-attested with attestationKey. The honest wire is
// kept as replay bait for the next call and never aliased into the
// result.
func (l *Liar) Tamper(wire core.ObsWire, attestationKey string) core.ObsWire {
	l.mu.Lock()
	defer l.mu.Unlock()
	honest := cloneWire(wire)
	told := l.lies[xrand.Mix(l.seed, 0x11e5, wire.LayoutSeed)%uint64(len(l.lies))]
	if told == lieReplay && l.last == nil {
		told = lieBitFlip
	}
	out := cloneWire(wire)
	switch told {
	case lieBitFlip:
		out.Cycles ^= 1 << (xrand.Mix(l.seed, 0xb17, wire.LayoutSeed) % 40)
	case lieStaleSeed:
		out.LayoutSeed += 2 // stays odd: plausible, but another layout's
	case lieReplay:
		out = cloneWire(*l.last)
	case lieBadFingerprint:
		out.Fingerprint = fmt.Sprintf("pia1:%032x", xrand.Mix(l.seed, 0xf1f0, wire.LayoutSeed))
	case lieForge:
		out.Cycles ^= 1 << (xrand.Mix(l.seed, 0xf0e6e, wire.LayoutSeed) % 40)
		out.Fingerprint = out.Attest(attestationKey)
	}
	l.last = &honest
	l.counts[told]++
	return out
}

func cloneWire(w core.ObsWire) core.ObsWire {
	w.Events = slices.Clone(w.Events)
	return w
}

func liarWire(seed uint64) core.ObsWire {
	return core.ObsWire{
		LayoutSeed:   seed,
		HeapSeed:     seed * 3,
		Cycles:       1000 + seed,
		Instructions: 900 + seed,
		Events:       []uint64{seed, seed + 1},
		Runs:         3,
		Status:       1,
		Attempts:     1,
		Fingerprint:  "pia1:feedface",
	}
}

// TestLiarDeterministic pins the byzantine soak's contract: the lie an
// observation gets depends only on (liar seed, layout seed), so two
// liars with the same seed fed the same observations tell byte-identical
// lies in any order.
func TestLiarDeterministic(t *testing.T) {
	a, b := NewLiar(7), NewLiar(7)
	seeds := []uint64{11, 13, 15, 17, 19, 21, 23, 25}
	for _, s := range seeds {
		ra := a.Tamper(liarWire(s), "key")
		rb := b.Tamper(liarWire(s), "key")
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("same seed, same input, different lies:\n%+v\n%+v", ra, rb)
		}
	}
	if !reflect.DeepEqual(a.counts, b.counts) {
		t.Fatalf("lie counts diverged: %v vs %v", a.counts, b.counts)
	}
	// A different liar seed reshuffles the schedule.
	c := NewLiar(8)
	diff := false
	for _, s := range seeds {
		if !reflect.DeepEqual(c.Tamper(liarWire(s), "key"), a.Tamper(liarWire(s), "key")) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("liar seed had no effect over 8 observations")
	}
}

// TestLiarLies checks each lie's corruption is visible and that the
// honest input is never mutated in place.
func TestLiarLies(t *testing.T) {
	const key = "key"
	for _, told := range []lie{lieBitFlip, lieStaleSeed, lieBadFingerprint, lieForge} {
		l := NewLiar(1)
		l.lies = []lie{told}
		in := liarWire(41)
		orig := cloneWire(in)
		out := l.Tamper(in, key)
		if !reflect.DeepEqual(in, orig) {
			t.Fatalf("lie %d mutated the input in place", told)
		}
		switch told {
		case lieBitFlip:
			if out.Cycles == in.Cycles {
				t.Errorf("bit-flip left cycles untouched")
			}
		case lieStaleSeed:
			if out.LayoutSeed == in.LayoutSeed || out.LayoutSeed%2 == 0 {
				t.Errorf("stale-seed lie produced seed %d from %d", out.LayoutSeed, in.LayoutSeed)
			}
		case lieBadFingerprint:
			if out.Fingerprint == in.Fingerprint || out.Cycles != in.Cycles {
				t.Errorf("bad-fingerprint lie: fp %q cycles %d", out.Fingerprint, out.Cycles)
			}
		case lieForge:
			if out.Fingerprint != out.Attest(key) || out.Cycles == in.Cycles {
				t.Errorf("forge lie: fp %q cycles %d", out.Fingerprint, out.Cycles)
			}
		}
	}

	// Replay returns the previous honest observation, not the previous lie.
	l := NewLiar(1)
	l.lies = []lie{lieReplay}
	first := l.Tamper(liarWire(41), key) // nothing to replay: falls back to bit-flip
	if first.Cycles == liarWire(41).Cycles {
		t.Fatal("first replay call should fall back to a bit flip")
	}
	second := l.Tamper(liarWire(43), key)
	if !reflect.DeepEqual(second, liarWire(41)) {
		t.Fatalf("replay returned %+v, want the honest first observation", second)
	}
	if n := l.counts[lieReplay]; n != 1 {
		t.Fatalf("replay count = %d, want 1", n)
	}
}
