// Package invariant enforces PReCinCt's paper-derived protocol invariants
// at runtime. A Runner attaches to an assembled simulation as a pure
// observer: it implements the node.Probe hooks for event checks (cache
// admission control, Equation 2 TTR smoothing, key re-homing), runs the
// checks table on the simulation clock (cache bounds, key custody
// multiplicity, stored TTRs, message conservation, radio liveness,
// scheduler bookkeeping, region-table sanity), and runs it once more
// when the run completes. The checks never mutate protocol state,
// schedule protocol events or consume randomness, so a checked run
// produces bit-identical results to an unchecked one — a property the
// test suite asserts.
//
// The catalog of invariants, with paper citations and hook locations,
// lives in DESIGN.md section 9.
package invariant

import (
	"fmt"
	"math"
	"slices"

	"precinct/internal/consistency"
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

// Report summarizes one checked run.
type Report struct {
	// Sweeps is how many periodic check passes ran; Events how many
	// scheduler events the runner observed.
	Sweeps uint64
	Events uint64
	// TotalViolations counts every breach; Violations records the first
	// 64.
	TotalViolations uint64
	Violations      []Violation
}

// Ok reports whether the run was violation-free.
func (r Report) Ok() bool { return r.TotalViolations == 0 }

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("invariants: %d violation(s) over %d sweeps / %d events",
		r.TotalViolations, r.Sweeps, r.Events)
}

// Context gives the checks read access to the assembled simulation.
type Context struct {
	Net     *node.Network
	Ch      *radio.Channel
	Meter   *energy.Meter // may be nil
	Sched   *sim.Scheduler
	Catalog *workload.Catalog
}

// checks is the periodic catalog in DESIGN.md section 9's order. Each
// sweep returns human-readable violation details, empty when clean. The
// admission rule has no sweep: it is checked on each admission only.
var checks = []struct {
	name  string
	sweep func(*Context) []string
}{
	{"cache", sweepCache},
	{"custody", sweepCustody},
	{"ttr", sweepTTR},
	{"conservation", sweepConservation},
	{"liveness", sweepLiveness},
	{"scheduler", sweepScheduler},
	{"region", sweepRegion},
}

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
	ctx *Context
	rep Report
	// executed0 is the scheduler's Executed count at Attach, so the
	// report's Events counts only the events the runner was attached for.
	executed0 uint64
}

// New builds a Runner over the full invariant catalog.
func New() *Runner { return &Runner{} }

// Attach wires the runner into an assembled simulation: it installs
// itself as the network's probe and schedules the recurring sweep. Call
// before the first Run.
func (r *Runner) Attach(ctx Context) {
	c := ctx
	r.ctx = &c
	r.executed0 = c.Sched.Executed()
	c.Net.SetProbe(r)
	r.armSweep()
}

// armSweep schedules the next recurring sweep one interval from now.
func (r *Runner) armSweep() {
	r.ctx.Sched.After(sweepInterval, func() {
		r.Sweep()
		r.armSweep()
	})
}

// record stamps and stores violation details from one check.
func (r *Runner) record(name string, details []string) {
	for _, d := range details {
		r.rep.TotalViolations++
		if len(r.rep.Violations) < maxViolations {
			r.rep.Violations = append(r.rep.Violations, Violation{
				Checker: name,
				Time:    r.ctx.Sched.Now(),
				Detail:  d,
			})
		}
	}
}

// Sweep runs the checks table immediately.
func (r *Runner) Sweep() {
	r.rep.Sweeps++
	for _, c := range checks {
		r.record(c.name, c.sweep(r.ctx))
	}
}

// Finalize runs the checks table once more after the horizon, with the
// scheduler's drained-queue check right after its sweep. Call once after
// the simulation horizon is reached.
func (r *Runner) Finalize() {
	for _, c := range checks {
		out := c.sweep(r.ctx)
		if c.name == "scheduler" {
			out = append(out, drained(r.ctx)...)
		}
		r.record(c.name, out)
	}
}

// Report returns the run's summary so far.
func (r *Runner) Report() Report {
	rep := r.rep
	rep.Events = r.ctx.Sched.Executed() - r.executed0
	return rep
}

// OnCacheAdmit implements node.Probe: the paper's cache admission
// control (Section 3) never admits an item served from within the
// requester's own region into its dynamic cache.
func (r *Runner) OnCacheAdmit(id radio.NodeID, requesterRegion, serverRegion region.ID, key workload.Key) {
	if requesterRegion == serverRegion {
		r.record("admission", []string{fmt.Sprintf(
			"peer %d cached key %d served from its own region %d",
			int(id), uint32(key), int(requesterRegion))})
	}
}

// OnTTRSmoothed implements node.Probe: every Equation 2 smoothing step
// (Section 4) lands inside the convex hull of its inputs.
func (r *Runner) OnTTRSmoothed(id radio.NodeID, key workload.Key, alpha, prev, interval, next float64) {
	if err := consistency.CheckSmoothingBound(alpha, prev, interval, next); err != nil {
		r.record("ttr", []string{fmt.Sprintf("peer %d key %d: %v", int(id), uint32(key), err)})
	}
}

// AfterRehome implements node.Probe: a re-homing pass leaves a peer
// holding only copies that either belong to its current region or have
// no eligible custodian anywhere, and an evacuating peer none it could
// hand off.
func (r *Runner) AfterRehome(p *node.Peer, evacuate bool) {
	var out []string
	st := p.Store()
	t := r.ctx.Net.Table()
	for _, k := range st.Keys() {
		it, _ := st.Get(k)
		proper, ok := t.ReplicaRegionAt(k, it.ReplicaRank)
		if !ok {
			// No proper region exists (e.g. a replica copy on a
			// single-region table); the copy legitimately stays.
			continue
		}
		if evacuate {
			out = append(out, fmt.Sprintf(
				"peer %d still holds key %d (region %d) after evacuating",
				int(p.ID()), uint32(k), int(proper.ID)))
			continue
		}
		if proper.ID == p.RegionID() {
			continue // the copy is where it belongs
		}
		if r.ctx.Net.HasCustodian(proper.ID, p) {
			out = append(out, fmt.Sprintf(
				"peer %d (region %d) kept key %d although region %d has an eligible custodian",
				int(p.ID()), int(p.RegionID()), uint32(k), int(proper.ID)))
		}
	}
	r.record("custody", out)
}

// sweepCache verifies every peer cache's structural invariants: byte
// occupancy never exceeds capacity, the occupancy accumulator matches the
// entry sizes, and the GD-LD aging floor L never decreases (paper
// Section 3: L rises to the utility of each victim).
func sweepCache(ctx *Context) []string {
	var out []string
	for i := 0; i < ctx.Net.Peers(); i++ {
		c := ctx.Net.Peer(radio.NodeID(i)).Cache()
		if c == nil {
			continue
		}
		if err := c.CheckInvariants(); err != nil {
			out = append(out, fmt.Sprintf("peer %d: %v", i, err))
		}
	}
	return out
}

// sweepCustody verifies key ownership (Section 2): at any instant a key
// has at most one live custodian per replica rank — one primary (rank 0)
// and one per replica region (copies can be zero while in flight or
// after losses) — and every stored rank stays within the configured
// replica count. Keys are reported in ascending order, so which
// violations fit under the cap is the same on every run.
func sweepCustody(ctx *Context) []string {
	var out []string
	maxRank := ctx.Net.Replicas()
	seen := make(map[workload.Key][]int)
	for i := 0; i < ctx.Net.Peers(); i++ {
		p := ctx.Net.Peer(radio.NodeID(i))
		if !p.Alive() {
			continue
		}
		st := p.Store()
		for _, k := range st.Keys() {
			it, _ := st.Get(k)
			if it.ReplicaRank < 0 || it.ReplicaRank > maxRank {
				out = append(out, fmt.Sprintf(
					"peer %d stores key %d at replica rank %d outside [0, %d]",
					i, uint32(k), it.ReplicaRank, maxRank))
				continue
			}
			h := seen[k]
			if len(h) <= it.ReplicaRank {
				h = append(h, make([]int, it.ReplicaRank+1-len(h))...)
			}
			h[it.ReplicaRank]++
			seen[k] = h
		}
	}
	keys := make([]workload.Key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for rank, count := range seen[k] {
			if count <= 1 {
				continue
			}
			if rank == 0 {
				out = append(out, fmt.Sprintf("key %d has %d live primary custodians", uint32(k), count))
			} else {
				out = append(out, fmt.Sprintf(
					"key %d has %d live rank-%d replica custodians", uint32(k), count, rank))
			}
		}
	}
	return out
}

// sweepTTR verifies the Time-to-Refresh bookkeeping of Push with
// Adaptive Pull (Section 4): stored TTRs stay finite and non-negative.
func sweepTTR(ctx *Context) []string {
	var out []string
	for i := 0; i < ctx.Net.Peers(); i++ {
		st := ctx.Net.Peer(radio.NodeID(i)).Store()
		for _, k := range st.Keys() {
			it, _ := st.Get(k)
			if math.IsNaN(it.TTR) || math.IsInf(it.TTR, 0) || it.TTR < 0 {
				out = append(out, fmt.Sprintf(
					"peer %d stores key %d with invalid TTR %v", i, uint32(k), it.TTR))
			}
		}
	}
	return out
}

// sweepConservation verifies the channel's conservation law and holds
// the energy meter to it: every scheduled reception resolves as exactly
// one of handled or receiver-dead (so Deliveries == Handled + DeadDrops +
// InFlight at all times), and every frame the
// channel counts charges its sender once and at most one addressee, so
// the meter never counts more sends than the channel sent frames, nor
// more point-to-point receptions than sends. The warmup reset only
// lowers the meter's counts, so the bounds hold across it. Requests are
// conserved too: every one issued is closed or still pending
// (node.Network.CheckRequests).
func sweepConservation(ctx *Context) []string {
	var out []string
	st := ctx.Ch.Stats()
	if st.Deliveries != st.Handled+st.DeadDrops+ctx.Ch.InFlight() {
		out = append(out, fmt.Sprintf(
			"radio: deliveries %d != handled %d + dead %d + in-flight %d",
			st.Deliveries, st.Handled, st.DeadDrops, ctx.Ch.InFlight()))
	}
	if ctx.Net != nil {
		if err := ctx.Net.CheckRequests(); err != nil {
			out = append(out, err.Error())
		}
	}
	if ctx.Meter == nil {
		return out
	}
	for _, b := range []struct {
		class energy.Class
		bound uint64
		what  string
	}{
		{energy.BroadcastSend, st.BroadcastFrames, "broadcast frames"},
		{energy.P2PSend, st.UnicastFrames, "unicast frames"},
		{energy.P2PRecv, ctx.Meter.Messages(energy.P2PSend), "p2p-send charges"},
	} {
		if got := ctx.Meter.Messages(b.class); got > b.bound {
			out = append(out, fmt.Sprintf("energy: %v charges %d > %s %d", b.class, got, b.what, b.bound))
		}
	}
	return out
}

// sweepLiveness verifies that the radio reads the network's liveness
// table (every channel agrees with node.Peer.Alive on every peer), and
// that the neighbor query honors it: no node's neighbor list names a
// dead node or the node itself. The neighbor query reads true positions
// and refreshes no beacon, so the sweep is a pure observation in every
// mode.
func sweepLiveness(ctx *Context) []string {
	if err := ctx.Net.CheckLiveness(); err != nil {
		return []string{err.Error()}
	}
	var out []string
	for i := 0; i < ctx.Net.Peers(); i++ {
		id := radio.NodeID(i)
		for _, nb := range ctx.Ch.Neighbors(id) {
			if nb.ID == id {
				out = append(out, fmt.Sprintf("peer %d is listed as its own neighbor", i))
			} else if !ctx.Net.Peer(nb.ID).Alive() {
				out = append(out, fmt.Sprintf("dead peer %d is listed as a neighbor of peer %d", nb.ID, i))
			}
		}
	}
	return out
}

// sweepScheduler verifies the event-queue bookkeeping.
func sweepScheduler(ctx *Context) []string {
	if err := ctx.Sched.CheckConsistency(); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// drained verifies, once the run ends, that no request leaks: with a
// drained event queue every issued request must have completed or timed
// out.
func drained(ctx *Context) []string {
	if ctx.Sched.Len() == 0 && ctx.Net.PendingRequests() != 0 {
		return []string{fmt.Sprintf(
			"%d requests pending with an empty event queue", ctx.Net.PendingRequests())}
	}
	return nil
}

// sweepRegion verifies the geographic hash layer (Section 2): the region
// table is structurally sound, and every catalog key maps to a home
// region and — whenever at least two regions exist — a distinct replica
// region. With k > 1 replica regions configured, the k replica ranks the
// table can satisfy must be pairwise distinct and distinct from the home
// region.
func sweepRegion(ctx *Context) []string {
	var out []string
	t := ctx.Net.Table()
	if err := t.CheckInvariants(); err != nil {
		out = append(out, err.Error())
	}
	for k := 0; k < ctx.Catalog.Len(); k++ {
		key := workload.Key(k)
		home, ok := t.HomeRegion(key)
		if !ok {
			out = append(out, fmt.Sprintf("key %d has no home region", k))
			continue
		}
		if t.Len() < 2 {
			continue
		}
		// Every rank the table can satisfy — rank 1 always, up to the
		// configured k — exists and differs from the home region and
		// from every other rank.
		used := map[region.ID]int{home.ID: 0}
		for r := 1; r <= max(ctx.Net.Replicas(), 1) && r < t.Len(); r++ {
			rr, ok := t.ReplicaRegionAt(key, r)
			if !ok {
				out = append(out, fmt.Sprintf(
					"key %d has no rank-%d replica region on a %d-region table", k, r, t.Len()))
				break
			}
			if prev, dup := used[rr.ID]; dup {
				out = append(out, fmt.Sprintf(
					"key %d: rank-%d replica region %d collides with rank %d",
					k, r, int(rr.ID), prev))
			}
			used[rr.ID] = r
		}
	}
	return out
}
