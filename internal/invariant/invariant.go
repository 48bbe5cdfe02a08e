// Package invariant enforces PReCinCt's paper-derived protocol invariants
// at runtime. A Runner attaches to an assembled simulation as a pure
// observer: it implements the node.Probe hooks for event-driven checks
// (cache admission control, Equation 2 TTR smoothing, key re-homing),
// sweeps global state periodically on the simulation clock (cache bounds,
// key custody multiplicity, region-table sanity, scheduler bookkeeping,
// message conservation, radio liveness), and finalizes conservation laws
// once the run completes. The checkers never mutate protocol state, schedule protocol
// events or consume randomness, so a checked run produces bit-identical
// results to an unchecked one — a property the test suite asserts.
//
// The catalog of invariants, with paper citations and hook locations,
// lives in DESIGN.md section 9.
package invariant

import (
	"fmt"

	"precinct/internal/energy"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Checker names the invariant that fired.
	Checker string
	// Time is the simulation time of detection in seconds.
	Time float64
	// Detail describes the breach.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%.3f: %s", v.Checker, v.Time, v.Detail)
}

// Context gives checkers read access to the assembled simulation.
type Context struct {
	Net     *node.Network
	Ch      *radio.Channel
	Meter   *energy.Meter // may be nil
	Sched   *sim.Scheduler
	Catalog *workload.Catalog
}

// Checker is one invariant (or a family of related invariants). Sweep
// runs on the periodic check tick; Finalize once after the run. Both
// return human-readable violation descriptions, empty when clean.
// Checkers may additionally implement the event-observer interfaces
// below to validate individual protocol transitions.
type Checker interface {
	Name() string
	Sweep(ctx *Context) []string
	Finalize(ctx *Context) []string
}

// Event-observer interfaces a Checker may implement; the Runner
// dispatches the corresponding node.Probe callbacks to them.
type (
	admitObserver interface {
		OnCacheAdmit(ctx *Context, id radio.NodeID, requesterRegion, serverRegion region.ID, key workload.Key) []string
	}
	ttrObserver interface {
		OnTTRSmoothed(ctx *Context, id radio.NodeID, key workload.Key, alpha, prev, interval, next float64) []string
	}
	rehomeObserver interface {
		AfterRehome(ctx *Context, p *node.Peer, evacuate bool) []string
	}
	evictObserver interface {
		OnCacheEvict(ctx *Context, id radio.NodeID, key workload.Key) []string
	}
)

const (
	// sweepInterval is the period of the global checks in simulated
	// seconds.
	sweepInterval = 5
	// maxViolations caps the violations kept in memory; the total count
	// keeps running past it.
	maxViolations = 64
)

// Runner drives the invariant catalog against one simulation run. It
// implements node.Probe.
type Runner struct {
	checkers []Checker
	ctx      *Context

	violations []Violation
	total      uint64
	sweeps     uint64
	events     uint64
	lastEvent  float64
}

// New builds a Runner over the full invariant catalog.
func New() *Runner {
	return &Runner{checkers: []Checker{
		&CacheChecker{},
		&AdmissionChecker{},
		&CustodyChecker{},
		&TTRChecker{},
		&ConservationChecker{},
		&LivenessChecker{},
		&SchedulerChecker{},
		&RegionChecker{},
	}}
}

// Attach wires the runner into an assembled simulation: it installs
// itself as the network's probe and the scheduler's after-event observer,
// and schedules the recurring sweep. Call before the first Run.
func (r *Runner) Attach(ctx Context) {
	c := ctx
	r.ctx = &c
	r.lastEvent = c.Sched.Now()
	c.Net.SetProbe(r)
	c.Sched.SetAfterEvent(r.afterEvent)
	r.armSweep()
}

// armSweep schedules the next recurring sweep one interval from now.
func (r *Runner) armSweep() {
	r.ctx.Sched.After(sweepInterval, func() {
		r.Sweep()
		r.armSweep()
	})
}

// record stamps and stores violation details from one checker.
func (r *Runner) record(checker string, details []string) {
	for _, d := range details {
		r.total++
		if len(r.violations) < maxViolations {
			r.violations = append(r.violations, Violation{
				Checker: checker,
				Time:    r.ctx.Sched.Now(),
				Detail:  d,
			})
		}
	}
}

// Sweep runs every checker's periodic pass immediately.
func (r *Runner) Sweep() {
	r.sweeps++
	for _, c := range r.checkers {
		r.record(c.Name(), c.Sweep(r.ctx))
	}
}

// Finalize runs the end-of-run checks (conservation laws, drained
// queues). Call once after the simulation horizon is reached.
func (r *Runner) Finalize() {
	for _, c := range r.checkers {
		r.record(c.Name(), c.Finalize(r.ctx))
	}
}

// afterEvent observes every executed event: the clock must never move
// backwards.
func (r *Runner) afterEvent(now float64) {
	r.events++
	if now < r.lastEvent {
		r.total++
		if len(r.violations) < maxViolations {
			r.violations = append(r.violations, Violation{
				Checker: "scheduler",
				Time:    now,
				Detail:  fmt.Sprintf("clock moved backwards: %v after %v", now, r.lastEvent),
			})
		}
	}
	r.lastEvent = now
}

// OnCacheAdmit implements node.Probe.
func (r *Runner) OnCacheAdmit(id radio.NodeID, requesterRegion, serverRegion region.ID, key workload.Key) {
	for _, c := range r.checkers {
		if o, ok := c.(admitObserver); ok {
			r.record(c.Name(), o.OnCacheAdmit(r.ctx, id, requesterRegion, serverRegion, key))
		}
	}
}

// OnTTRSmoothed implements node.Probe.
func (r *Runner) OnTTRSmoothed(id radio.NodeID, key workload.Key, alpha, prev, interval, next float64) {
	for _, c := range r.checkers {
		if o, ok := c.(ttrObserver); ok {
			r.record(c.Name(), o.OnTTRSmoothed(r.ctx, id, key, alpha, prev, interval, next))
		}
	}
}

// OnCacheEvict implements node.Probe.
func (r *Runner) OnCacheEvict(id radio.NodeID, key workload.Key) {
	for _, c := range r.checkers {
		if o, ok := c.(evictObserver); ok {
			r.record(c.Name(), o.OnCacheEvict(r.ctx, id, key))
		}
	}
}

// AfterRehome implements node.Probe.
func (r *Runner) AfterRehome(p *node.Peer, evacuate bool) {
	for _, c := range r.checkers {
		if o, ok := c.(rehomeObserver); ok {
			r.record(c.Name(), o.AfterRehome(r.ctx, p, evacuate))
		}
	}
}

// Violations returns the recorded violations (capped at maxViolations).
func (r *Runner) Violations() []Violation { return r.violations }

// Total returns the number of violations detected, including any beyond
// the recording cap.
func (r *Runner) Total() uint64 { return r.total }

// Sweeps returns how many sweep passes ran.
func (r *Runner) Sweeps() uint64 { return r.sweeps }

// Events returns how many scheduler events the runner observed.
func (r *Runner) Events() uint64 { return r.events }
