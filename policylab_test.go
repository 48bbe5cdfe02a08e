package precinct_test

// Policy-lab and replica-layer suite (DESIGN.md section 16): the k>1
// replica-region axis and the registered-policy axis layered over the
// fuzzed scenario corpus. Every test here composes fuzzgen transforms
// (WithReplicas, WithPolicy) with the existing metamorphic relations,
// so the new axes inherit the whole invariant catalog and the
// determinism discipline instead of getting bespoke weaker checks.

import (
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/node"
)

// replicaSeeds returns the seed set for the k=2 replica pass: 12
// scenarios normally (the acceptance floor), 4 under -short.
func replicaSeeds() []int64 {
	n := 12
	if testing.Short() {
		n = 4
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestInvariantReplicaScenarios runs the fuzzed corpus with two replica
// regions per key under the full runtime invariant catalog — including
// the per-rank custody checker (at most one live custodian per
// (key, rank)) and the k-rank region-distinctness checks.
func TestInvariantReplicaScenarios(t *testing.T) {
	for _, seed := range replicaSeeds() {
		sc := fuzzgen.WithReplicas(fuzzgen.Expand(seed), 2)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, inv, err := precinct.RunChecked(sc)
			if err != nil {
				t.Fatalf("RunChecked: %v", err)
			}
			if !inv.Ok() {
				for _, v := range inv.Violations {
					t.Errorf("violation: %s", v)
				}
				t.Fatalf("%s", inv)
			}
			if inv.Sweeps == 0 || inv.Events == 0 {
				t.Fatalf("checkers did not run: %s", inv)
			}
			if res.Report.Requests == 0 {
				t.Fatalf("scenario issued no requests; fuzzer produced a vacuous config")
			}
		})
	}
}

// TestInvariantReplicaDeterminism: a k=2 run repeated from the same
// scenario must reproduce byte-identically — the replica walk and
// load-aware placement introduce no hidden nondeterminism.
func TestInvariantReplicaDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 8, 14} {
		sc := fuzzgen.WithReplicas(fuzzgen.Expand(seed), 2)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			first, err := precinct.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := precinct.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "replica-repeat", first, second)
		})
	}
}

// TestInvariantReplicaLegacyDefault pins the edge the replica count
// starts from: Replicas 0 places no replica copy at all, and 1 — the
// paper's single replica region — places exactly one rank-1 copy of
// every key.
func TestInvariantReplicaLegacyDefault(t *testing.T) {
	for _, seed := range []int64{2, 6, 19} {
		sc := fuzzgen.Expand(seed)
		// Stop before the first mobility check, so the stores still hold
		// the initial placement.
		sc.Faults, sc.ChurnInterval, sc.Warmup, sc.Duration = nil, 0, 0, 0.5
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, reps := range []int{0, 1} {
				sc := sc
				sc.Replicas = reps
				run, err := precinct.RunObservedForTest(sc, func(*node.Network) node.Probe { return nil })
				if err != nil {
					t.Fatal(err)
				}
				copies := make([]int, sc.Items)
				for _, store := range run.Stores {
					for _, it := range store {
						if it.ReplicaRank >= 1 {
							copies[it.Key]++
						}
					}
				}
				for k, n := range copies {
					if n != reps {
						t.Errorf("Replicas %d: key %d has %d replica copies", reps, k, n)
					}
				}
			}
		})
	}
}

// TestInvariantMetamorphicReplicaRelabel: renaming a k=2 scenario must
// not change anything about its run — replica placement keys off
// geometry and keys, never the label.
func TestInvariantMetamorphicReplicaRelabel(t *testing.T) {
	for _, seed := range []int64{5, 11} {
		sc := fuzzgen.WithReplicas(fuzzgen.Expand(seed), 2)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			base, err := precinct.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			relabeled, err := precinct.Run(fuzzgen.Relabel(sc, sc.Name+"-relabeled"))
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "replica-relabel", base, relabeled)
		})
	}
}

// TestInvariantPolicySweep runs one fuzzed scenario per registered
// policy under the full invariant catalog. Iterating PolicyNames()
// makes the sweep self-extending: registering a policy enrolls it in
// the end-to-end invariant discipline automatically, the system-level
// counterpart of the unit contract battery in internal/cache.
func TestInvariantPolicySweep(t *testing.T) {
	names := precinct.PolicyNames()
	if len(names) < 6 {
		t.Fatalf("registry lists %d policies, want at least 6: %v", len(names), names)
	}
	for i, policy := range names {
		sc := fuzzgen.WithPolicy(fuzzgen.Expand(int64(20+i)), policy)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, inv, err := precinct.RunChecked(sc)
			if err != nil {
				t.Fatalf("RunChecked: %v", err)
			}
			if !inv.Ok() {
				for _, v := range inv.Violations {
					t.Errorf("violation: %s", v)
				}
				t.Fatalf("%s", inv)
			}
			if res.Report.Requests == 0 {
				t.Fatalf("scenario issued no requests; fuzzer produced a vacuous config")
			}
		})
	}
}

// TestInvariantPolicyReplicaCross drives both new axes at once: an
// aged competitor policy (gdsf) and a frequency policy (pop-rank) each
// under k=2 replication and the full catalog, so policy-specific
// eviction interacts with multi-rank custody in at least one checked
// run per policy family.
func TestInvariantPolicyReplicaCross(t *testing.T) {
	for i, policy := range []string{"gdsf", "pop-rank"} {
		sc := fuzzgen.WithReplicas(fuzzgen.WithPolicy(fuzzgen.Expand(int64(30+i)), policy), 2)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			_, inv, err := precinct.RunChecked(sc)
			if err != nil {
				t.Fatalf("RunChecked: %v", err)
			}
			if !inv.Ok() {
				for _, v := range inv.Violations {
					t.Errorf("violation: %s", v)
				}
				t.Fatalf("%s", inv)
			}
		})
	}
}
