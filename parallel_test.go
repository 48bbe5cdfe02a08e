package precinct_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/trace"
)

// parallelize normalizes a generated scenario into the sharded-execution
// envelope: sharded runs require perfect location knowledge, so
// beaconing is cleared before comparing modes.
func parallelize(s precinct.Scenario, shards int) precinct.Scenario {
	s.BeaconInterval = 0
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
	events, err := trace.Read(&buf)
	return res, events, err
}

// encodeTrace renders events through a trace.Writer, the byte form the
// cross-mode comparisons hold equal.
func encodeTrace(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	seqBytes := encodeTrace(t, seqEvents)
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
		if !bytes.Equal(seqBytes, encodeTrace(t, parEvents)) {
			t.Errorf("%s (shards=%d): canonical traces differ (%d vs %d events)",
				v.Name, v.Shards, len(seqEvents), len(parEvents))
		}
	}
}

// compareModes runs a scenario sequentially and with the given shard
// counts, requiring identical Report/Protocol/Radio and byte-identical canonical traces
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
// retrieval scheme, consistency scheme, loss setting, fault
// schedule and churn — including lossy large-N scale scenarios — a run
// sharded over fuzzgen.ShardCounts goroutines (2, 3, 4, 5 and 8,
// including counts that do not divide the node population) reports
// identically to the sequential run, down to byte-identical canonical
// traces.
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
				variants = append(variants, fuzzgen.WithShards(base, shards))
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

// TestParallelScenarioValidation pins the sharded-execution envelope:
// every rejection names its cause, and the default scenario shards.
func TestParallelScenarioValidation(t *testing.T) {
	base := precinct.DefaultScenario()
	base.Duration = 10
	base.Warmup = 0
	base.Shards = 2
	validate := func(s precinct.Scenario) error { return s.Validate() }
	runChecked := func(s precinct.Scenario) error {
		_, _, err := precinct.RunChecked(s)
		return err
	}
	for _, c := range []struct {
		name   string
		mutate func(*precinct.Scenario)
		run    func(precinct.Scenario) error
		want   string
	}{
		{"beaconing", func(s *precinct.Scenario) { s.BeaconInterval = 1 }, validate, "perfect location knowledge"},
		{"non-default-workload", func(s *precinct.Scenario) { s.Workload = "flash-crowd" }, validate, "only the default workload"},
		{"more-shards-than-nodes", func(s *precinct.Scenario) { s.Shards = s.Nodes + 1 }, validate, "shards exceed"},
		{"negative-shards", func(s *precinct.Scenario) { s.Shards = -1 }, validate, "shards must be non-negative"},
		{"run-checked", func(*precinct.Scenario) {}, runChecked, "invariant checking runs sequentially"},
	} {
		s := base
		c.mutate(&s)
		if err := c.run(s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to name %q", c.name, err, c.want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid sharded scenario rejected: %v", err)
	}
	s := base
	s.Workload = "default"
	if err := s.Validate(); err != nil {
		t.Errorf("sharded default workload rejected: %v", err)
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
	wantBytes := encodeTrace(t, want)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]trace.Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		trace.Canonicalize(shuffled)
		if !bytes.Equal(encodeTrace(t, shuffled), wantBytes) {
			t.Fatalf("trial %d: shuffled trace does not canonicalize to the sequential ordering", trial)
		}
	}
}
