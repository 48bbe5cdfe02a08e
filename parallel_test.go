package precinct_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/trace"
)

// parallelize normalizes a generated scenario into the sharded-execution
// envelope: sharded runs require perfect location knowledge and static
// regions, so those knobs are cleared before comparing modes.
func parallelize(s precinct.Scenario, shards int) precinct.Scenario {
	s.BeaconInterval = 0
	s.AdaptiveRegions = false
	s.Shards = shards
	return s
}

// tracedEvents executes a scenario and returns the result plus the
// decoded protocol trace.
func tracedEvents(s precinct.Scenario) (precinct.Result, []trace.Event, error) {
	var buf bytes.Buffer
	res, err := precinct.RunTraced(s, &buf)
	if err != nil {
		return res, nil, err
	}
	events, err := trace.DecodeLines(buf.Bytes())
	return res, events, err
}

// compareAgainstSequential runs the base scenario sequentially, then
// every sharded variant, requiring identical Report/Protocol/Radio and
// byte-identical canonical traces from each.
func compareAgainstSequential(t *testing.T, base precinct.Scenario, variants []precinct.Scenario) {
	t.Helper()
	seq, seqEvents, err := tracedEvents(parallelize(base, 0))
	if err != nil {
		t.Fatal(err)
	}
	trace.Canonicalize(seqEvents)
	seqBytes, err := trace.EncodeLines(seqEvents)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		par, parEvents, err := tracedEvents(v)
		if err != nil {
			t.Fatalf("%s (shards=%d): %v", v.Name, v.Shards, err)
		}
		if !reflect.DeepEqual(seq.Report, par.Report) {
			t.Errorf("%s (shards=%d): Report diverged:\nsequential: %+v\nparallel:   %+v", v.Name, v.Shards, seq.Report, par.Report)
		}
		if !reflect.DeepEqual(seq.Protocol, par.Protocol) {
			t.Errorf("%s (shards=%d): ProtocolStats diverged:\nsequential: %+v\nparallel:   %+v", v.Name, v.Shards, seq.Protocol, par.Protocol)
		}
		if !reflect.DeepEqual(seq.Radio, par.Radio) {
			t.Errorf("%s (shards=%d): RadioStats diverged:\nsequential: %+v\nparallel:   %+v", v.Name, v.Shards, seq.Radio, par.Radio)
		}
		trace.Canonicalize(parEvents)
		parBytes, err := trace.EncodeLines(parEvents)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqBytes, parBytes) {
			t.Errorf("%s (shards=%d): canonical traces differ (%d vs %d events)",
				v.Name, v.Shards, len(seqEvents), len(parEvents))
		}
	}
}

// compareModes runs a scenario sequentially and with the given shard
// counts (preserving the scenario's ShardBalance setting), requiring
// identical Report/Protocol/Radio and byte-identical canonical traces
// from every mode.
func compareModes(t *testing.T, s precinct.Scenario, shardCounts ...int) {
	t.Helper()
	var variants []precinct.Scenario
	for _, shards := range shardCounts {
		if shards > s.Nodes {
			continue
		}
		variants = append(variants, parallelize(s, shards))
	}
	compareAgainstSequential(t, s, variants)
}

// TestParallelEquivalence enforces the sharded-execution determinism
// contract: for fuzz-generated scenarios across every mobility model,
// retrieval scheme, consistency scheme, loss/collision setting, fault
// schedule and churn — including lossy large-N scale scenarios — a run
// sharded over fuzzgen.ShardCounts goroutines (2, 3, 4, 5 and 8,
// including counts that do not divide the node population) reports
// identically to the sequential run, down to byte-identical canonical
// traces. The seed alternates the shard-balance mode, so both the
// load-probe split and the legacy equal-count split are proven.
func TestParallelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("fuzz/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			base := fuzzgen.Expand(seed)
			var variants []precinct.Scenario
			for _, shards := range fuzzgen.ShardCounts {
				if shards > base.Nodes {
					continue
				}
				variants = append(variants, fuzzgen.WithShards(base, shards, seed))
			}
			compareAgainstSequential(t, base, variants)
		})
	}
	// The race detector multiplies the cost of the large-N seeds several
	// times over; cap them like -short does (the full sizes run
	// race-free in the regular suite).
	maxNodes := 2000
	if testing.Short() || raceEnabled {
		maxNodes = 500
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("scale/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			compareModes(t, fuzzgen.ExpandScale(seed, maxNodes), 4)
		})
	}
	// The 10k-node tier (DESIGN.md section 14): seed 8 expands to the
	// acceptance shape — 10000 static nodes, 30% loss,
	// push-adaptive-pull over a full 300 s horizon — and must shard
	// identically like every smaller seed. Under -short or the race
	// detector it rides the capped maxNodes above with the rest of the
	// scale seeds.
	bigNodes := 10000
	if testing.Short() || raceEnabled {
		bigNodes = maxNodes
	}
	t.Run("scale/seed=8-10k", func(t *testing.T) {
		t.Parallel()
		compareModes(t, fuzzgen.ExpandScale(8, bigNodes), 4)
	})
}

// TestParallelScenarioValidation pins the sharded-execution envelope.
func TestParallelScenarioValidation(t *testing.T) {
	base := precinct.DefaultScenario()
	base.Duration = 10
	base.Warmup = 0

	s := base
	s.Shards = 2
	s.BeaconInterval = 1
	if err := s.Validate(); err == nil {
		t.Error("sharded run with beaconing should be rejected")
	}
	s = base
	s.Shards = 2
	s.AdaptiveRegions = true
	if err := s.Validate(); err == nil {
		t.Error("sharded run with adaptive regions should be rejected")
	}
	s = base
	s.Shards = s.Nodes + 1
	if err := s.Validate(); err == nil {
		t.Error("more shards than nodes should be rejected")
	}
	s = base
	s.Shards = -1
	if err := s.Validate(); err == nil {
		t.Error("negative shards should be rejected")
	}
	s = base
	s.Shards = 2
	if err := s.Validate(); err != nil {
		t.Errorf("valid sharded scenario rejected: %v", err)
	}
}

// TestTraceShuffleCanonicalizes records a real run's trace, shuffles it,
// and requires canonicalization to restore the byte-exact encoding of
// the canonicalized sequential ordering — the property the cross-mode
// trace comparison rests on.
func TestTraceShuffleCanonicalizes(t *testing.T) {
	s := fuzzgen.Expand(5)
	_, events, err := tracedEvents(parallelize(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 100 {
		t.Fatalf("trace too small to be meaningful: %d events", len(events))
	}
	want := append([]trace.Event(nil), events...)
	trace.Canonicalize(want)
	wantBytes, err := trace.EncodeLines(want)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]trace.Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		trace.Canonicalize(shuffled)
		got, err := trace.EncodeLines(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("trial %d: shuffled trace does not canonicalize to the sequential ordering", trial)
		}
	}
}
