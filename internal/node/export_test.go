package node

import (
	"precinct/internal/radio"
	"precinct/internal/region"
)

// Hooks for the external custodian test (custodian_test.go, package
// node_test, which may import the fuzzgen scenario generator where an
// in-package test may not).

// noPeer stands for "no such peer" in the hooks' node-ID results.
const noPeer radio.NodeID = -1

func idOf(p *Peer) radio.NodeID {
	if p == nil {
		return noPeer
	}
	return p.id
}

func (n *Network) peerOrNil(id radio.NodeID) *Peer {
	if id == noPeer {
		return nil
	}
	return n.peers[id]
}

// CustodiansForTest runs the production custodian queries for region id:
// the live peer nearest the center, skipping exclude (-1 for nobody), and
// the least-loaded live peer. -1 means the region is empty.
func (n *Network) CustodiansForTest(id region.ID, exclude radio.NodeID) (nearest, leastLoaded radio.NodeID) {
	return idOf(n.peerNearestCenterExcluding(id, n.peerOrNil(exclude))), idOf(n.peerLeastLoaded(id))
}

// CustodiansByScanForTest answers the same two questions the way the
// node layer did before it had a rectangle query to ask: by testing every
// peer, in ascending node order, against the table's own Contains.
func (n *Network) CustodiansByScanForTest(id region.ID, exclude radio.NodeID) (nearest, leastLoaded radio.NodeID) {
	t := n.table
	r, ok := t.Region(id)
	if !ok {
		return noPeer, noPeer
	}
	var near, least *Peer
	nearD, leastD, leastLoad := 0.0, 0.0, 0
	for _, p := range n.peers {
		if !p.Alive() {
			continue
		}
		pos := n.ch.Position(p.id)
		if !t.Contains(id, pos) {
			continue
		}
		d := pos.Dist2(r.Center())
		if p.id != exclude && (near == nil || d < nearD) {
			near, nearD = p, d
		}
		if load := p.store.Len(); least == nil || load < leastLoad || (load == leastLoad && d < leastD) {
			least, leastLoad, leastD = p, load, d
		}
	}
	return idOf(near), idOf(least)
}
