package precinct_test

// System-level proofs for the workload lab (DESIGN.md section 15):
// every non-default source must be deterministic under a fixed seed,
// reproduce its committed recording (sourceCases in
// workload_golden_test.go), and hold the invariant catalog — the same bar
// the default workload has cleared since PR 2.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
)

// workloadScenario builds a scenario running the given source kind,
// derived from a fuzzgen seed so the suites sweep mobility models,
// retrieval schemes and consistency configurations too.
func workloadScenario(seed int64, kind string) precinct.Scenario {
	s := fuzzgen.Expand(seed)
	s.Shards = 0
	s.Workload = kind
	s.Name = s.Name + "/" + kind
	return s
}

// workloadKindsUnderTest lists the non-default sources.
func workloadKindsUnderTest() []string { return precinct.WorkloadKinds()[1:] }

// TestWorkloadSourceDeterminism runs every source twice under the same
// seed: the trace streams must be byte-identical and the results
// DeepEqual, or the source leaked nondeterminism into the run.
func TestWorkloadSourceDeterminism(t *testing.T) {
	for i, kind := range workloadKindsUnderTest() {
		sc := workloadScenario(int64(21+i), kind)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res1, trace1 := runTracedBytes(t, sc)
			res2, trace2 := runTracedBytes(t, sc)
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("%s: two runs under one seed produced different trace streams (%d vs %d bytes)",
					kind, len(trace1), len(trace2))
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Errorf("%s: two runs under one seed produced different results", kind)
			}
			if res1.Report.Requests == 0 {
				t.Errorf("%s: run issued no requests", kind)
			}
		})
	}
}

// TestWorkloadInvariants runs fuzzgen's workload variants (randomized
// source parameters over randomized base scenarios) under the full
// invariant catalog.
func TestWorkloadInvariants(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 2
	}
	scs := make([]precinct.Scenario, 0, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		scs = append(scs, fuzzgen.WithWorkload(fuzzgen.Expand(seed), seed))
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, inv, err := precinct.RunChecked(sc)
			if err != nil {
				t.Fatalf("RunChecked: %v", err)
			}
			if !inv.Ok() {
				t.Fatalf("invariant violations: %s", inv)
			}
			if res.Report.Requests == 0 {
				t.Error("run issued no requests")
			}
		})
	}
}

// TestWorkloadScenarioValidation pins the wiring error path: an
// unknown kind, the retired trace replay among them. The sharded-run
// gate is a row of TestParallelScenarioValidation.
func TestWorkloadScenarioValidation(t *testing.T) {
	for _, kind := range []string{"tidal", "trace"} {
		s := fuzzgen.Expand(50)
		s.Workload = kind
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unknown workload") {
			t.Errorf("workload %q: err = %v", kind, err)
		}
	}
}
