package node

import (
	"testing"

	"precinct/internal/radio"
	"precinct/internal/workload"
)

func TestQuitIntoEmptyRegionLosesKeysGracefully(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	// Crash everyone, then quit the last holder: its keys have no
	// custodian anywhere and must be counted lost, not leaked.
	var holder *Peer
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if p.Store().Len() > 0 && holder == nil {
			holder = p
			continue
		}
		h.net.Crash(p.ID())
	}
	if holder == nil {
		t.Fatal("no holder")
	}
	n := holder.Store().Len()
	h.net.Quit(holder.ID())
	if holder.Store().Len() != 0 {
		t.Error("quit left keys in the departing store")
	}
	if got := h.net.Stats().LostKeys; got != uint64(n) {
		t.Errorf("LostKeys = %d, want %d", got, n)
	}
}

func TestReplicaCopiesKeepRole(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	// Find a replica copy and verify its role survives a graceful quit
	// (handoff) of its holder.
	var holder *Peer
	var key workload.Key
	found := false
	for i := 0; i < h.net.Peers() && !found; i++ {
		p := h.net.Peer(radio.NodeID(i))
		for _, k := range p.Store().Keys() {
			it, _ := p.Store().Get(k)
			if it.ReplicaRank > 0 {
				holder, key, found = p, k, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no replica copy placed")
	}
	h.net.Quit(holder.ID())
	h.sched.Run(10)
	// Someone else now holds the replica copy, still marked as replica.
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if !p.Alive() {
			continue
		}
		if it, ok := p.Store().Get(key); ok && it.ReplicaRank > 0 {
			return // role preserved
		}
	}
	t.Error("replica copy vanished or lost its role after handoff")
}

func TestStoreCopiesSelfHealAfterStranding(t *testing.T) {
	// Run a mobile scenario long enough for handoffs (and possibly
	// stranded adoptions), then verify keys converge back to their
	// proper regions.
	o := defaultHarnessOpts()
	o.mobile = true
	o.maxSpeed = 10
	h := build(t, o)
	h.net.Run(400)
	misplaced := 0
	total := 0
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		for _, k := range p.Store().Keys() {
			it, _ := p.Store().Get(k)
			want, ok := h.table.ReplicaRegionAt(k, it.ReplicaRank)
			if !ok {
				continue
			}
			total++
			if want.ID != p.RegionID() {
				misplaced++
			}
		}
	}
	if total == 0 {
		t.Fatal("no store copies at all")
	}
	// Peers mid-crossing legitimately hold keys for up to a mobility
	// check interval; demand at least 90% placement.
	if float64(misplaced) > 0.1*float64(total) {
		t.Errorf("%d/%d copies misplaced after self-healing window", misplaced, total)
	}
}
