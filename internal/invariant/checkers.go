package invariant

import (
	"fmt"
	"math"

	"precinct/internal/consistency"
	"precinct/internal/energy"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/workload"
)

// CacheChecker verifies every peer cache's structural invariants: byte
// occupancy never exceeds capacity, the occupancy accumulator matches the
// entry sizes, and the GD-LD aging floor L never decreases (paper
// Section 3: L rises to the utility of each victim).
type CacheChecker struct{}

// Name implements Checker.
func (*CacheChecker) Name() string { return "cache" }

// Sweep implements Checker.
func (*CacheChecker) Sweep(ctx *Context) []string {
	var out []string
	for i := 0; i < ctx.Net.Peers(); i++ {
		p := ctx.Net.Peer(radio.NodeID(i))
		c := p.Cache()
		if c == nil {
			continue
		}
		if err := c.CheckInvariants(); err != nil {
			out = append(out, fmt.Sprintf("peer %d: %v", i, err))
		}
	}
	return out
}

// Finalize implements Checker.
func (c *CacheChecker) Finalize(ctx *Context) []string { return c.Sweep(ctx) }

// AdmissionChecker verifies the paper's cache admission control
// (Section 3): an item served from within the requester's own region must
// never enter the requester's dynamic cache.
type AdmissionChecker struct{}

// Name implements Checker.
func (*AdmissionChecker) Name() string { return "admission" }

// Sweep implements Checker.
func (*AdmissionChecker) Sweep(*Context) []string { return nil }

// Finalize implements Checker.
func (*AdmissionChecker) Finalize(*Context) []string { return nil }

// OnCacheAdmit implements the admit observer.
func (*AdmissionChecker) OnCacheAdmit(_ *Context, id radio.NodeID, requesterRegion, serverRegion region.ID, key workload.Key) []string {
	if requesterRegion == serverRegion {
		return []string{fmt.Sprintf(
			"peer %d cached key %d served from its own region %d",
			int(id), uint32(key), int(requesterRegion))}
	}
	return nil
}

// CustodyChecker verifies key ownership (Section 2): at any instant a key
// has at most one live custodian per replica rank — one primary (rank 0)
// and one per replica region (copies can be zero while in flight or
// after losses) — every stored rank stays within the configured replica
// count, and a re-homing pass leaves a peer holding only copies that
// either belong to its current region or have no eligible custodian
// anywhere.
type CustodyChecker struct{}

// Name implements Checker.
func (*CustodyChecker) Name() string { return "custody" }

// Sweep implements Checker.
func (*CustodyChecker) Sweep(ctx *Context) []string {
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
	for k, h := range seen {
		for rank, count := range h {
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

// Finalize implements Checker.
func (c *CustodyChecker) Finalize(ctx *Context) []string { return c.Sweep(ctx) }

// AfterRehome implements the rehome observer.
func (*CustodyChecker) AfterRehome(ctx *Context, p *node.Peer, evacuate bool) []string {
	var out []string
	st := p.Store()
	t := ctx.Net.Table()
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
		if ctx.Net.HasCustodian(proper.ID, p) {
			out = append(out, fmt.Sprintf(
				"peer %d (region %d) kept key %d although region %d has an eligible custodian",
				int(p.ID()), int(p.RegionID()), uint32(k), int(proper.ID)))
		}
	}
	return out
}

// TTRChecker verifies the Time-to-Refresh bookkeeping of Push with
// Adaptive Pull (Section 4, Equation 2): stored TTRs stay finite and
// non-negative, and every smoothing step lands inside the convex hull of
// its inputs.
type TTRChecker struct{}

// Name implements Checker.
func (*TTRChecker) Name() string { return "ttr" }

// Sweep implements Checker.
func (*TTRChecker) Sweep(ctx *Context) []string {
	var out []string
	for i := 0; i < ctx.Net.Peers(); i++ {
		p := ctx.Net.Peer(radio.NodeID(i))
		st := p.Store()
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

// Finalize implements Checker.
func (c *TTRChecker) Finalize(ctx *Context) []string { return c.Sweep(ctx) }

// OnTTRSmoothed implements the TTR observer.
func (*TTRChecker) OnTTRSmoothed(_ *Context, id radio.NodeID, key workload.Key, alpha, prev, interval, next float64) []string {
	if err := consistency.CheckSmoothingBound(alpha, prev, interval, next); err != nil {
		return []string{fmt.Sprintf("peer %d key %d: %v", int(id), uint32(key), err)}
	}
	return nil
}

// ConservationChecker verifies the channel's conservation law and holds
// the energy meter to it: every scheduled reception resolves as exactly
// one of handled, collided or receiver-dead (so Deliveries == Handled +
// Collisions + DeadDrops + InFlight at all times), and every frame the
// channel counts charges its sender once and at most one addressee, so
// the meter never counts more sends than the channel sent frames, nor
// more point-to-point receptions than sends. The warmup reset only
// lowers the meter's counts, so the bounds hold across it.
type ConservationChecker struct{}

// Name implements Checker.
func (*ConservationChecker) Name() string { return "conservation" }

// Sweep implements Checker.
func (*ConservationChecker) Sweep(ctx *Context) []string {
	var out []string
	st := ctx.Ch.Stats()
	resolved := st.Handled + st.Collisions + st.DeadDrops
	if st.Deliveries != resolved+ctx.Ch.InFlight() {
		out = append(out, fmt.Sprintf(
			"radio: deliveries %d != handled %d + collisions %d + dead %d + in-flight %d",
			st.Deliveries, st.Handled, st.Collisions, st.DeadDrops, ctx.Ch.InFlight()))
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

// Finalize implements Checker.
func (c *ConservationChecker) Finalize(ctx *Context) []string { return c.Sweep(ctx) }

// LivenessChecker verifies that the radio reads the network's liveness
// table (every channel agrees with node.Peer.Alive on every peer), and
// that the neighbor query honors it: no node's neighbor list names a
// dead node or the node itself. The neighbor query reads true positions
// and refreshes no beacon, so the sweep is a pure observation in every
// mode.
type LivenessChecker struct{}

// Name implements Checker.
func (*LivenessChecker) Name() string { return "liveness" }

// Sweep implements Checker.
func (*LivenessChecker) Sweep(ctx *Context) []string {
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

// Finalize implements Checker.
func (c *LivenessChecker) Finalize(ctx *Context) []string { return c.Sweep(ctx) }

// SchedulerChecker verifies the event-queue bookkeeping every sweep and,
// once the run ends, that no request leaks: with a drained event queue
// every issued request must have completed or timed out.
type SchedulerChecker struct{}

// Name implements Checker.
func (*SchedulerChecker) Name() string { return "scheduler" }

// Sweep implements Checker.
func (*SchedulerChecker) Sweep(ctx *Context) []string {
	if err := ctx.Sched.CheckConsistency(); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// Finalize implements Checker.
func (c *SchedulerChecker) Finalize(ctx *Context) []string {
	out := c.Sweep(ctx)
	if ctx.Sched.Len() == 0 && ctx.Net.PendingRequests() != 0 {
		out = append(out, fmt.Sprintf(
			"%d requests pending with an empty event queue", ctx.Net.PendingRequests()))
	}
	return out
}

// RegionChecker verifies the geographic hash layer (Section 2): the
// region table is structurally sound, and every catalog key maps to a
// home region and — whenever at least two regions exist — a distinct
// replica region. With k > 1 replica regions
// configured, the k replica ranks the table can satisfy must be pairwise
// distinct and distinct from the home region.
type RegionChecker struct{}

// Name implements Checker.
func (*RegionChecker) Name() string { return "region" }

// Sweep implements Checker.
func (*RegionChecker) Sweep(ctx *Context) []string {
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

// Finalize implements Checker.
func (c *RegionChecker) Finalize(ctx *Context) []string { return c.Sweep(ctx) }
