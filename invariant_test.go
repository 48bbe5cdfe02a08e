package precinct_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
)

// fuzzSeeds returns the fixed seed set the suite runs: 24 scenarios
// normally, the first 6 under -short.
func fuzzSeeds() []int64 {
	n := 24
	if testing.Short() {
		n = 6
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestInvariantFuzzedScenarios runs every fuzzed scenario under the full
// runtime invariant catalog and requires a clean report.
func TestInvariantFuzzedScenarios(t *testing.T) {
	for _, seed := range fuzzSeeds() {
		sc := fuzzgen.Expand(seed)
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

// scaleSeedCount and scaleMaxNodes bound the large-N invariant pass:
// 4 scenarios capped at 500 nodes under -short, 6 at 2000 otherwise.
func scaleSeedCount() (n int, maxNodes int) {
	if testing.Short() {
		return 4, 500
	}
	return 6, 2000
}

// TestInvariantScaleScenarios runs the scale-tier corpus — large-N,
// always-lossy scenarios up to 2000 peers — under the full runtime
// invariant catalog, so every checker is exercised at the node counts
// the ROADMAP targets, not just at paper scale.
func TestInvariantScaleScenarios(t *testing.T) {
	n, maxNodes := scaleSeedCount()
	for seed := int64(1); seed <= int64(n); seed++ {
		sc := fuzzgen.ExpandScale(seed, maxNodes)
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
				t.Fatalf("scale scenario issued no requests; generator produced a vacuous config")
			}
			if sc.LossRate == 0 {
				t.Fatalf("scale scenario is lossless; ExpandScale must always set LossRate")
			}
		})
	}
}

// TestInvariantCheckedRunMatchesUnchecked asserts the checkers are pure
// observers: attaching them must not change any run output.
func TestInvariantCheckedRunMatchesUnchecked(t *testing.T) {
	for _, seed := range fuzzSeeds()[:4] {
		sc := fuzzgen.Expand(seed)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			plain, err := precinct.Run(sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checked, inv, err := precinct.RunChecked(sc)
			if err != nil {
				t.Fatalf("RunChecked: %v", err)
			}
			if !inv.Ok() {
				t.Fatalf("%s", inv)
			}
			if !reflect.DeepEqual(plain, checked) {
				t.Fatalf("checked run diverged from unchecked run:\nplain:   %+v\nchecked: %+v", plain, checked)
			}
		})
	}
}

// requireSameResult compares two runs of (metamorphically) equivalent
// scenarios, ignoring the Scenario echo itself.
func requireSameResult(t *testing.T, label string, a, b precinct.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("%s: Report diverged:\na: %+v\nb: %+v", label, a.Report, b.Report)
	}
	if a.Protocol != b.Protocol {
		t.Errorf("%s: ProtocolStats diverged:\na: %+v\nb: %+v", label, a.Protocol, b.Protocol)
	}
	if a.Radio != b.Radio {
		t.Errorf("%s: RadioStats diverged:\na: %+v\nb: %+v", label, a.Radio, b.Radio)
	}
}

// TestInvariantMetamorphicRelabel: renaming a scenario must not change
// anything about its run.
func TestInvariantMetamorphicRelabel(t *testing.T) {
	for _, seed := range []int64{2, 5, 11} {
		sc := fuzzgen.Expand(seed)
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
			requireSameResult(t, "relabel", base, relabeled)
		})
	}
}

// TestInvariantMetamorphicFaultOrder: fuzzgen emits pairwise-distinct
// fault times, so the order of the Faults slice is irrelevant to the
// schedule and shuffling it is output-preserving.
func TestInvariantMetamorphicFaultOrder(t *testing.T) {
	tested := 0
	for seed := int64(1); seed <= 60 && tested < 3; seed++ {
		sc := fuzzgen.Expand(seed)
		if len(sc.Faults) < 2 {
			continue
		}
		tested++
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			base, err := precinct.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			shuffled, err := precinct.Run(fuzzgen.ShuffleFaults(sc, 99))
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "fault-order", base, shuffled)
		})
	}
	if tested == 0 {
		t.Fatal("no fuzzed scenario with >= 2 faults in seeds 1..60; fuzzer regressed")
	}
}

// brokenCacheScenario is small but guaranteed to overflow a sabotaged
// cache: a tiny cache fraction means a handful of admissions exceed
// capacity once eviction is disabled.
func brokenCacheScenario() precinct.Scenario {
	sc := precinct.DefaultScenario()
	sc.Name = "broken-cache"
	sc.Nodes = 32
	sc.Duration = 240
	sc.Warmup = 60
	sc.CacheFraction = 0.001
	return sc
}

// TestInvariantDetectsBrokenCache proves the checker catches a broken
// build: with eviction disabled via the debug hook, the cache capacity
// invariant must fire.
func TestInvariantDetectsBrokenCache(t *testing.T) {
	t.Setenv("PRECINCT_DEBUG_BREAK", "no-evict")
	_, inv, err := precinct.RunChecked(brokenCacheScenario())
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if inv.Ok() {
		t.Fatalf("invariant checker missed the disabled eviction: %s", inv)
	}
	found := false
	for _, v := range inv.Violations {
		if v.Checker == "cache" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("expected a cache violation, got: %v", inv.Violations)
	}
}

// TestInvariantDetectsSplitLiveness: a radio that reads another liveness
// table than the network's must trip the liveness checker.
func TestInvariantDetectsSplitLiveness(t *testing.T) {
	t.Setenv("PRECINCT_DEBUG_BREAK", "split-liveness")
	_, inv, err := precinct.RunChecked(brokenCacheScenario())
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	for _, v := range inv.Violations {
		if v.Checker == "liveness" {
			return
		}
	}
	t.Fatalf("expected a liveness violation, got: %s", inv)
}

// TestInvariantDebugBreakUnknownMode: an unknown sabotage mode is a
// configuration error, not a silent no-op.
func TestInvariantDebugBreakUnknownMode(t *testing.T) {
	t.Setenv("PRECINCT_DEBUG_BREAK", "definitely-not-a-mode")
	if _, _, err := precinct.RunChecked(brokenCacheScenario()); err == nil {
		t.Fatal("expected an error for an unknown PRECINCT_DEBUG_BREAK mode")
	}
}

// TestInvariantSimCheckCLI drives the precinct-sim binary end to end:
// -check exits 0 on a healthy build and non-zero (status 2) when the
// build is sabotaged through the debug hook.
func TestInvariantSimCheckCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI twice; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "precinct-sim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/precinct-sim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-check", "-nodes", "32", "-duration", "240", "-warmup", "60", "-cache-frac", "0.001"}

	clean := exec.Command(bin, args...)
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("clean -check run failed: %v\n%s", err, out)
	}

	broken := exec.Command(bin, args...)
	broken.Env = append(os.Environ(), "PRECINCT_DEBUG_BREAK=no-evict")
	out, err := broken.CombinedOutput()
	if err == nil {
		t.Fatalf("sabotaged -check run exited 0:\n%s", out)
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("sabotaged run did not produce an exit error: %v", err)
	}
	if code := exitErr.ExitCode(); code != 2 {
		t.Fatalf("sabotaged run exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(string(out), "occupancy") {
		t.Fatalf("sabotaged run printed no capacity violation:\n%s", out)
	}
}

// ExampleRunChecked demonstrates the checked-run entry point.
func ExampleRunChecked() {
	sc := precinct.DefaultScenario()
	sc.Nodes = 24
	sc.Duration = 120
	sc.Warmup = 30
	_, inv, err := precinct.RunChecked(sc)
	if err != nil {
		panic(err)
	}
	fmt.Println("clean:", inv.Ok())
	// Output:
	// clean: true
}
