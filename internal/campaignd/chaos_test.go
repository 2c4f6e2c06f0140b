package campaignd_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/faultinject"
)

// TestChaosSoak runs the real harness: every round spins up a full
// service (HTTP listener, queue, local lease groups), batters it with
// error bursts, panics and latency spikes, and requires the measurement
// export to stay byte-identical to a clean single-process run.
func TestChaosSoak(t *testing.T) {
	var out bytes.Buffer
	err := campaignd.Soak(campaignd.SoakConfig{
		Spec:    testSpec(6),
		Rounds:  2,
		Seed:    0xc4a05,
		Workers: 2,
		Rates: faultinject.Rates{
			Error: 0.25, Panic: 0.1,
			Spike: 0.3, SpikeP99: 2 * time.Millisecond,
			MaxFaults: 2,
		},
		Timeout: time.Minute,
		Out:     &out,
	})
	t.Logf("soak output:\n%s", out.String())
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "soak PASS") {
		t.Error("soak report missing the PASS line")
	}
	// The soak only proves something if faults actually fired.
	if strings.Contains(report, "0 faults") {
		t.Error("a soak round injected no faults")
	}
}

// TestChaosSoakShardedBatched is the batched scale-out soak: every round
// runs as a pure coordinator with 2 remote workers, each sharing one
// batched trace walk per lease group, under the same fault storm — and
// the export must still match the clean single-process bytes.
func TestChaosSoakShardedBatched(t *testing.T) {
	var out bytes.Buffer
	err := campaignd.Soak(campaignd.SoakConfig{
		Spec:         testSpec(8),
		Rounds:       2,
		Seed:         0xba7c4,
		ShardWorkers: 2,
		Rates: faultinject.Rates{
			Error: 0.2, Panic: 0.1,
			MaxFaults: 2,
		},
		Timeout: time.Minute,
		Out:     &out,
	})
	t.Logf("soak output:\n%s", out.String())
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "soak PASS") {
		t.Error("soak report missing the PASS line")
	}
	if strings.Contains(report, "0 faults") {
		t.Error("a soak round injected no faults")
	}
}

// TestChaosSoakByzantine is the trust soak: 2 of 4 sharded workers lie
// about every result they report. The round stages the fleet — liars
// first, honest workers only after every liar is quarantined — and the
// export must still match the clean single-process bytes, with the
// provenance (attempts) export proving no requeue was ever charged.
func TestChaosSoakByzantine(t *testing.T) {
	var out bytes.Buffer
	err := campaignd.Soak(campaignd.SoakConfig{
		Spec:             testSpec(6),
		Rounds:           2,
		Seed:             0xb42a,
		ShardWorkers:     4,
		ByzantineWorkers: 2,
		Timeout:          time.Minute,
		Out:              &out,
	})
	t.Logf("soak output:\n%s", out.String())
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "soak PASS") {
		t.Error("soak report missing the PASS line")
	}
	if !strings.Contains(report, "2 byzantine workers quarantined") {
		t.Error("soak report missing the quarantine line")
	}
}

// TestSoakRejectsByzantineWithoutHonestWorkers: a fleet of nothing but
// liars can never finish the campaign, so the soak refuses it up front.
func TestSoakRejectsByzantineWithoutHonestWorkers(t *testing.T) {
	err := campaignd.Soak(campaignd.SoakConfig{
		Spec:             testSpec(2),
		ShardWorkers:     2,
		ByzantineWorkers: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "byzantine") {
		t.Fatalf("soak accepted an all-liar fleet: %v", err)
	}
}

// TestSoakRejectsCorruptFaults: silent measurement corruption cannot be
// detected by the service, so the soak refuses to claim byte-identity
// under it.
func TestSoakRejectsCorruptFaults(t *testing.T) {
	err := campaignd.Soak(campaignd.SoakConfig{
		Spec:  testSpec(2),
		Rates: faultinject.Rates{Corrupt: 0.5},
	})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("soak accepted corrupt faults: %v", err)
	}
}
