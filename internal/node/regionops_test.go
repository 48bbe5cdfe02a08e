package node

import (
	"testing"

	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/workload"
)

func TestMergeRelocatesAndServes(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	// Regions 0 and 1 are adjacent in the 3x3 grid.
	if err := h.net.Merge(region.ID(0), region.ID(1)); err != nil {
		t.Fatal(err)
	}
	h.sched.Run(20)
	if h.net.Table().Len() != 8 {
		t.Fatalf("table has %d regions after merge", h.net.Table().Len())
	}
	if h.net.TableVersions() != 2 {
		t.Fatalf("table versions = %d, want 2", h.net.TableVersions())
	}
	// The dissemination flood must have reached every live peer.
	for i := 0; i < h.net.Peers(); i++ {
		if v := h.net.Peer(radio.NodeID(i)).TableVersion(); v != 1 {
			t.Fatalf("peer %d still on table version %d", i, v)
		}
	}
	// Requests across the board still succeed.
	completed := 0
	for i, k := range h.cat.Keys()[:20] {
		p := h.requesterFor(t, k)
		h.net.RequestFrom(p.ID(), k)
		h.sched.Run(20 + float64(10*(i+1)))
	}
	rep := h.net.Report()
	completed = int(rep.Completed)
	if completed < 18 {
		t.Errorf("only %d/20 requests completed after merge: %+v", completed, rep)
	}
}

func TestMergeInvalidArgsPropagate(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	if err := h.net.Merge(region.ID(0), region.ID(8)); err == nil {
		t.Error("non-adjacent merge accepted")
	}
	if err := h.net.Separate(region.ID(99)); err == nil {
		t.Error("separate of unknown region accepted")
	}
}

func TestSeparateMovesKeysToProperNewHomes(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	if err := h.net.Separate(region.ID(4)); err != nil { // center region
		t.Fatal(err)
	}
	// Let the routed relocations and a few mobility checks drain.
	h.sched.Run(30)
	// Every primary store copy must now sit with a peer whose current
	// region matches the key's home region (or be in flight — none
	// after draining).
	table := h.net.Table()
	misplaced := 0
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		for _, k := range p.Store().Keys() {
			it, _ := p.Store().Get(k)
			want, ok := table.ReplicaRegionAt(k, it.ReplicaRank)
			if !ok {
				continue
			}
			if want.ID != p.RegionID() {
				misplaced++
			}
		}
	}
	if misplaced > 10 {
		t.Errorf("%d store copies still misplaced after separate + relocation", misplaced)
	}
}

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
