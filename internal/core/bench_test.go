package core_test

import (
	"io"
	"testing"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
)

// benchCampaign runs a full campaign — trace generation amortized away,
// then layout build + measurement per layout — at the given fidelity.
// Comparing the PaperFidelity and PaperFidelityNaive targets quantifies
// the single-replay fast path; the shared-compile Builder and the
// allocation-free machine are in both paths.
func benchCampaign(b *testing.B, fid pmc.Fidelity, o *obs.Observer) {
	benchCampaignBatch(b, fid, o, 0)
}

// benchCampaignBatch is benchCampaign with an explicit batched-replay
// width: 1 pins the historic sequential path, 0 the automatic batch
// width (the default every caller now gets).
func benchCampaignBatch(b *testing.B, fid pmc.Fidelity, o *obs.Observer, batch int) {
	b.Helper()
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	cfg := core.CampaignConfig{
		Program:   progen.MustGenerate(spec),
		InputSeed: 1,
		Budget:    200000,
		Layouts:   32,
		Fidelity:  fid,
		BaseSeed:  42,
		Obs:       o,
		BatchSize: batch,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := core.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Obs) != cfg.Layouts {
			b.Fatalf("campaign returned %d observations", len(ds.Obs))
		}
	}
	b.ReportMetric(float64(cfg.Layouts)*float64(b.N)/b.Elapsed().Seconds(), "layouts/s")
}

// BenchmarkCampaignPaperFidelity is the campaign hot path at paper
// fidelity with the single-replay protocol (one simulation per layout).
func BenchmarkCampaignPaperFidelity(b *testing.B) {
	benchCampaign(b, pmc.FidelityPaper, nil)
}

// BenchmarkCampaignPaperFidelityObserved is the same campaign with every
// observability channel live — metrics registry, span tracer, progress
// reporter — quantifying instrumentation overhead against the nil-Obs
// baseline above (the budget is <3%).
func BenchmarkCampaignPaperFidelityObserved(b *testing.B) {
	benchCampaign(b, pmc.FidelityPaper, &obs.Observer{
		Metrics:  obs.NewMetrics(),
		Tracer:   obs.NewTracer(io.Discard),
		Progress: obs.NewProgress(io.Discard, "bench", 0, time.Hour),
	})
}

// BenchmarkCampaignPaperFidelityNaive runs the literal §5.5 protocol (15
// simulations per layout) for before/after comparison.
func BenchmarkCampaignPaperFidelityNaive(b *testing.B) {
	benchCampaign(b, pmc.FidelityPaperNaive, nil)
}

// BenchmarkCampaignFastFidelity is the single-run fidelity, the floor a
// paper-fidelity measurement can approach.
func BenchmarkCampaignFastFidelity(b *testing.B) {
	benchCampaign(b, pmc.FidelityFast, nil)
}

// BenchmarkCampaignSequential pins chunks of one (BatchSize 1, one
// scalar replay per layout) at paper fidelity: the before side of the
// batched-replay comparison.
func BenchmarkCampaignSequential(b *testing.B) {
	benchCampaignBatch(b, pmc.FidelityPaper, nil, 1)
}

// BenchmarkCampaignBatched is the batched replay on the same 32-layout
// workload: every worker chunk walks the trace once and fans the
// per-layout cycle scalars back through the measurement protocol. The
// results are byte-identical to BenchmarkCampaignSequential's; only the
// layouts/s metric should move.
func BenchmarkCampaignBatched(b *testing.B) {
	benchCampaignBatch(b, pmc.FidelityPaper, nil, 0)
}
