package toolchain

import (
	"bytes"
	"reflect"
	"testing"

	"interferometry/internal/progen"
	"interferometry/internal/xrand"
)

func genomeTestUnits(t testing.TB) ([]Unit, *Builder) {
	t.Helper()
	spec, ok := progen.ByName("429.mcf")
	if !ok {
		t.Fatalf("progen: no 429.mcf spec")
	}
	p, err := progen.Generate(spec)
	if err != nil {
		t.Fatalf("progen: %v", err)
	}
	b := NewBuilder(p, CompileConfig{}, LinkConfig{})
	return b.Units(), b
}

// GenomeOf must reproduce exactly the permutations the seeded Reorder
// applies: linking the applied genome lays out every block and procedure
// at the same address as the seed-built layout.
func TestGenomeOfMatchesReorder(t *testing.T) {
	units, b := genomeTestUnits(t)
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15, 42} {
		ref, err := b.Build(seed)
		if err != nil {
			t.Fatalf("Build(%#x): %v", seed, err)
		}
		g := GenomeOf(units, seed)
		if err := g.Validate(units); err != nil {
			t.Fatalf("GenomeOf(%#x) invalid: %v", seed, err)
		}
		applied, err := ApplyGenome(units, g)
		if err != nil {
			t.Fatalf("ApplyGenome(%#x): %v", seed, err)
		}
		exe, err := Link(b.prog, applied, seed, LinkConfig{})
		if err != nil {
			t.Fatalf("Link(%#x): %v", seed, err)
		}
		if !reflect.DeepEqual(ref.BlockAddr, exe.BlockAddr) ||
			!reflect.DeepEqual(ref.ProcAddr, exe.ProcAddr) ||
			!reflect.DeepEqual(ref.LinkOrder, exe.LinkOrder) {
			t.Fatalf("seed %#x: genome layout differs from Reorder layout", seed)
		}
	}
}

// BuildGenome stamps the executable with the genome fingerprint and
// passes the structural checks; fingerprints are even while campaign
// layout seeds are odd, so the two keyspaces never collide.
func TestBuildGenome(t *testing.T) {
	units, b := genomeTestUnits(t)
	g := GenomeOf(units, 7)
	fp := g.Fingerprint()
	if fp&1 != 0 {
		t.Fatalf("fingerprint %#x is odd; must be even to stay disjoint from layout seeds", fp)
	}
	exe, err := b.BuildGenome(g)
	if err != nil {
		t.Fatalf("BuildGenome: %v", err)
	}
	if exe.Seed != fp {
		t.Fatalf("exe.Seed = %#x, want fingerprint %#x", exe.Seed, fp)
	}
	if err := CheckExecutable(exe, -1); err != nil {
		t.Fatalf("CheckExecutable: %v", err)
	}
}

// The fingerprint must depend on every permutation element: any single
// mutation moves it, and a clone preserves it.
func TestGenomeFingerprintSensitivity(t *testing.T) {
	units, _ := genomeTestUnits(t)
	g := GenomeOf(units, 3)
	if got := g.Clone().Fingerprint(); got != g.Fingerprint() {
		t.Fatalf("clone fingerprint %#x != %#x", got, g.Fingerprint())
	}
	rng := xrand.New(99)
	seen := map[uint64][]byte{g.Fingerprint(): EncodeGenome(g)}
	cur := g
	for i := 0; i < 64; i++ {
		next := MutateGenome(cur, rng)
		enc := EncodeGenome(next)
		if prev, ok := seen[next.Fingerprint()]; ok && !bytes.Equal(prev, enc) {
			t.Fatalf("mutation %d: distinct genomes share fingerprint %#x", i, next.Fingerprint())
		}
		seen[next.Fingerprint()] = enc
		cur = next
	}
	if len(seen) < 8 {
		t.Fatalf("mutations barely moved the fingerprint: %d distinct values", len(seen))
	}
}

// Mutation and crossover must preserve genome validity — the closure
// property the whole search rests on.
func TestGenomeOperatorsPreserveValidity(t *testing.T) {
	units, _ := genomeTestUnits(t)
	rng := xrand.New(5)
	a, b := GenomeOf(units, 11), GenomeOf(units, 13)
	for i := 0; i < 200; i++ {
		child := CrossoverGenomes(a, b, rng)
		if err := child.Validate(units); err != nil {
			t.Fatalf("crossover %d: %v", i, err)
		}
		child = MutateGenome(child, rng)
		if err := child.Validate(units); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
		a, b = b, child
	}
}

// The codec must round-trip canonically and reject corruption: a genome
// that decodes is exactly the genome that was encoded, and a damaged
// encoding errors rather than decoding to a wrong-but-valid layout.
func TestGenomeCodecRoundTrip(t *testing.T) {
	units, _ := genomeTestUnits(t)
	for _, seed := range []uint64{0, 1, 17, 0xdeadbeef} {
		g := GenomeOf(units, seed)
		data := EncodeGenome(g)
		got, err := DecodeGenome(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("seed %d: round trip mutated the genome", seed)
		}
		if !bytes.Equal(EncodeGenome(got), data) {
			t.Fatalf("seed %d: re-encoding is not canonical", seed)
		}
	}
}

// Every single-bit flip of a valid encoding must fail to decode.
func TestGenomeCodecDetectsCorruption(t *testing.T) {
	units, _ := genomeTestUnits(t)
	data := EncodeGenome(GenomeOf(units, 23))
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 1 << bit
			if _, err := DecodeGenome(bad); err == nil {
				t.Fatalf("flip byte %d bit %d: corrupt genome decoded without error", i, bit)
			}
		}
	}
	for _, trunc := range []int{0, 7, 8, len(data) - 8, len(data) - 1} {
		if _, err := DecodeGenome(data[:trunc]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", trunc)
		}
	}
	if _, err := DecodeGenome(append(append([]byte(nil), data...), make([]byte, 8)...)); err == nil {
		t.Fatalf("trailing bytes decoded without error")
	}
}

// FuzzGenomeRoundTrip drives the codec with arbitrary bytes: anything
// that decodes must be internally consistent, re-encode to the identical
// bytes (the encoding is canonical), and fingerprint deterministically.
// Anything else must error — never decode to a wrong-but-valid genome.
func FuzzGenomeRoundTrip(f *testing.F) {
	spec, ok := progen.ByName("429.mcf")
	if !ok {
		f.Fatalf("progen: no 429.mcf spec")
	}
	p, err := progen.Generate(spec)
	if err != nil {
		f.Fatalf("progen: %v", err)
	}
	units := NewBuilder(p, CompileConfig{}, LinkConfig{}).Units()
	for _, seed := range []uint64{0, 1, 42} {
		f.Add(EncodeGenome(GenomeOf(units, seed)))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGenome(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeGenome(g), data) {
			t.Fatalf("decoded genome does not re-encode canonically")
		}
		if g.Fingerprint() != g.Clone().Fingerprint() {
			t.Fatalf("fingerprint is not deterministic")
		}
		seen := make(map[int]bool, len(g.Units))
		for _, u := range g.Units {
			if u < 0 || u >= len(g.Units) || seen[u] {
				t.Fatalf("decoded unit order is not a permutation")
			}
			seen[u] = true
		}
	})
}
