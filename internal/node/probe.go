package node

import (
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/workload"
)

// Probe observes protocol-internal transitions that are invisible from
// the public counters, so an external invariant checker can validate them
// as they happen. A probe must be a pure observer: it may read peer and
// network state but must not mutate it, schedule events, or consume
// randomness — otherwise checked and unchecked runs would diverge.
//
// All methods are called synchronously from within the event that caused
// the transition, with the scheduler clock at that event's time.
type Probe interface {
	// OnCacheAdmit fires when a peer admits an item into its dynamic
	// cache, after admission control decided in favor. requesterRegion is
	// the caching peer's region, serverRegion the responder's region as
	// carried by the reply; the paper forbids admitting when they match.
	OnCacheAdmit(id radio.NodeID, requesterRegion, serverRegion region.ID, key workload.Key)

	// OnTTRSmoothed fires when the consistency layer re-estimates a
	// stored item's TTR via Equation 2. prev is the effective previous
	// TTR (after seeding), interval the observed update interval, next
	// the stored result.
	OnTTRSmoothed(id radio.NodeID, key workload.Key, alpha, prev, interval, next float64)

	// AfterRehome fires when a peer finishes a rehomeKeys pass (mobility
	// check, or graceful quit with evacuate=true), after
	// all handoff messages have been issued.
	AfterRehome(p *Peer, evacuate bool)
}

// SetProbe installs (or, with nil, removes) the invariant probe.
func (n *Network) SetProbe(pr Probe) { n.probe = pr }

// HasCustodian reports whether some live peer other than exclude is
// currently located inside the region and could adopt keys belonging to
// it — the same eligibility rule rehomeKeys uses to pick handoff targets.
func (n *Network) HasCustodian(id region.ID, exclude *Peer) bool {
	return n.peerNearestCenterExcluding(id, exclude) != nil
}
