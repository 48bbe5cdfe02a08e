package precinct

import (
	"fmt"
	"os"

	"precinct/internal/invariant"
)

// InvariantViolation is one detected breach of a protocol invariant.
type InvariantViolation = invariant.Violation

// InvariantReport summarizes one checked run.
type InvariantReport = invariant.Report

// debugBreakEnv deliberately sabotages a built simulation according to
// the PRECINCT_DEBUG_BREAK environment variable, so the invariant
// checkers can be demonstrated to catch a broken build end to end:
//
//	no-evict — disable cache eviction on every peer (violates the
//	           capacity bound).
//	split-liveness — hand the radio a liveness table of its own, in
//	           which peer 0 is dead, in place of the network's.
//
// Unset or empty means no sabotage. Unknown values are an error.
func debugBreakEnv(b *built) error {
	switch mode := os.Getenv("PRECINCT_DEBUG_BREAK"); mode {
	case "":
		return nil
	case "no-evict":
		b.network.SetEvictionDisabledForTest(true)
		return nil
	case "split-liveness":
		own := make([]bool, b.network.Peers())
		for i := 1; i < len(own); i++ {
			own[i] = true
		}
		b.channel.SetLiveness(own)
		return nil
	default:
		return fmt.Errorf("precinct: unknown PRECINCT_DEBUG_BREAK mode %q", mode)
	}
}

// RunChecked executes the scenario with the full runtime invariant
// catalog attached (see DESIGN.md section 9). The checkers are pure
// observers: the Result is bit-identical to what Run returns for the
// same scenario. The error reports build failures only; detected
// violations are returned in the InvariantReport.
func RunChecked(s Scenario) (Result, InvariantReport, error) {
	if s.Shards > 1 {
		return Result{}, InvariantReport{}, fmt.Errorf("precinct: invariant checking runs sequentially; set Shards <= 1 (the equivalence suite proves sharded runs report-identical)")
	}
	b, err := s.buildTraced(nil)
	if err != nil {
		return Result{}, InvariantReport{}, err
	}
	if err := debugBreakEnv(b); err != nil {
		return Result{}, InvariantReport{}, err
	}
	runner := invariant.New()
	runner.Attach(invariant.Context{
		Net:     b.network,
		Ch:      b.channel,
		Meter:   b.meter,
		Sched:   b.network.Scheduler(),
		Catalog: b.catalog,
	})
	rep := b.network.Run(s.Duration)
	runner.Finalize()

	return b.result(rep), runner.Report(), nil
}
