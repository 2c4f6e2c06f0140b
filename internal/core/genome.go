package core

import (
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// This file is the genome side of the per-layout pipeline: search
// campaigns measure explicit layout permutations (toolchain.Genome)
// instead of seed-derived reorderings, as LayoutRunner units with
// Genome set. Everything downstream of the build — the counter harness,
// the plausibility check, the batched replay, retries, fault injection
// — is the seed path's. A genome's stable identity is its fingerprint;
// it plays the role the layout seed plays for indexed layouts: it keys
// the fault streams, the heap and noise seed derivations, and the
// provenance check on results streamed back from remote workers.
// Fingerprints are forced even and layout seeds forced odd, so the two
// keyspaces never collide in a fault plan.

// genomeHeapSeed derives the heap-randomizer seed of a genome from its
// fingerprint, with the same nonzero guarantee as the indexed heapSeed.
func (c *CampaignConfig) genomeHeapSeed(fp uint64) uint64 {
	if s := xrand.Mix(c.BaseSeed, 0x68656170, fp); s != 0 {
		return s
	}
	return 0x68656170
}

// genomeNoiseSeed derives the noise stream of a genome from its
// fingerprint, nonzero like genomeHeapSeed.
func (c *CampaignConfig) genomeNoiseSeed(fp uint64) uint64 {
	if s := xrand.Mix(c.BaseSeed, 0x6e6f6973, fp); s != 0 {
		return s
	}
	return 0x6e6f6973
}

// genomeBuildAdapter presents one genome build as a seed-keyed Builder
// so the fault injector can wrap it: the injector keys its fault
// streams off the seed argument, and LayoutRunner.buildUnit passes the
// genome's fingerprint, giving every genome its own deterministic fault
// draw exactly as every layout seed gets one.
type genomeBuildAdapter struct {
	b *toolchain.Builder
	g toolchain.Genome
}

func (a *genomeBuildAdapter) Build(uint64) (*toolchain.Executable, error) {
	return a.b.BuildGenome(a.g)
}
