//go:build soak

package precinct_test

// Soak tier: the ROADMAP-scale endurance run, deliberately excluded
// from the default test set (build tag "soak"; run via `make soak` or
// `go test -tags soak -run Soak -timeout 60m .`). Where the regular
// suite proves properties at paper scale and the scale tier samples
// large-N scenarios briefly, the soak test drives one 2000-node,
// heavily lossy scenario for a long horizon under the full runtime
// invariant catalog. Anything that only breaks after sustained pressure
// — leaked in-flight accounting, aging-floor drift, heap-index corruption
// after millions of evictions — surfaces here.

import (
	"math"
	"testing"

	"precinct"
)

// soakScenario is the fixed endurance workload: 2000 peers at the
// paper's node density, 30% frame loss, adaptive-pull consistency and
// real cache pressure. Everything is pinned (no fuzzing) so failures
// reproduce exactly.
func soakScenario() precinct.Scenario {
	s := precinct.DefaultScenario()
	s.Name = "soak-2000"
	s.Nodes = 2000
	s.AreaSide = 1200 * math.Sqrt(2000.0/80)
	rows := int(math.Round(s.AreaSide / 400))
	s.Regions = rows * rows
	s.LossRate = 0.3
	s.UpdateInterval = 60
	s.Consistency = "push-adaptive-pull"
	s.CacheFraction = 0.01
	s.Warmup = 60
	s.Duration = 600
	return s
}

// TestSoakScaleInvariants runs the endurance scenario under all seven
// runtime checkers (DESIGN.md section 9) and requires a clean report
// with real traffic behind it.
func TestSoakScaleInvariants(t *testing.T) {
	sc := soakScenario()
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
	if res.Report.Requests < 10000 {
		t.Fatalf("only %d requests; the soak run is not exercising the system", res.Report.Requests)
	}
	t.Logf("soak: %d requests, hit ratio %.3f, %d sweeps / %d event checks clean",
		res.Report.Requests, res.Report.ByteHitRatio, inv.Sweeps, inv.Events)
}
