package precinct

import (
	"fmt"
	"os"

	"precinct/internal/invariant"
	"precinct/internal/radio"
)

// InvariantViolation is one detected breach of a protocol invariant.
type InvariantViolation struct {
	// Checker names the invariant family ("cache", "custody", ...).
	Checker string
	// Time is the simulation time of detection in seconds.
	Time float64
	// Detail describes the breach.
	Detail string
}

// String implements fmt.Stringer.
func (v InvariantViolation) String() string {
	return fmt.Sprintf("[%s] t=%.3f: %s", v.Checker, v.Time, v.Detail)
}

// InvariantReport summarizes one checked run.
type InvariantReport struct {
	// Sweeps is how many periodic check passes ran; Events how many
	// scheduler events the runner observed.
	Sweeps uint64
	Events uint64
	// TotalViolations counts every breach; Violations records the first
	// 64.
	TotalViolations uint64
	Violations      []InvariantViolation
}

// Ok reports whether the run was violation-free.
func (r InvariantReport) Ok() bool { return r.TotalViolations == 0 }

// String renders a one-line summary.
func (r InvariantReport) String() string {
	return fmt.Sprintf("invariants: %d violation(s) over %d sweeps / %d events",
		r.TotalViolations, r.Sweeps, r.Events)
}

// invariantReportOf converts a finished runner into the public report.
func invariantReportOf(runner *invariant.Runner) InvariantReport {
	inv := InvariantReport{
		Sweeps:          runner.Sweeps(),
		Events:          runner.Events(),
		TotalViolations: runner.Total(),
	}
	for _, v := range runner.Violations() {
		inv.Violations = append(inv.Violations, InvariantViolation(v))
	}
	return inv
}

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
		for i := 0; i < b.network.Peers(); i++ {
			if c := b.network.Peer(radio.NodeID(i)).Cache(); c != nil {
				c.SetEvictionDisabledForTest(true)
			}
		}
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

	return Result{
		Scenario: s,
		Report:   fromMetrics(rep),
		Protocol: fromStats(b.network.Stats()),
		Radio:    fromRadio(b.channel.Stats()),
	}, invariantReportOf(runner), nil
}
