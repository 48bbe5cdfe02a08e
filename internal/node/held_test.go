package node

import (
	"fmt"
	"testing"

	"precinct/internal/radio"
)

// requireHeldBits fails when a peer's held mask reports "not held" for a
// key in its store or cache: the one answer mayHold may never get wrong.
func requireHeldBits(t *testing.T, n *Network, when string) {
	t.Helper()
	for _, p := range n.peers {
		keys := p.store.Keys()
		if p.cache != nil {
			keys = append(keys, p.cache.Keys()...)
		}
		for _, k := range keys {
			if !p.mayHold(k) {
				t.Fatalf("%s: peer %d holds key %d, but its bit is clear in mask %#x", when, p.id, k, n.held[p.id])
			}
		}
	}
}

// TestHeldMaskHasNoFalseNegatives holds the en-route key mask to every
// way a key enters a peer: the placement the first lookup fills it from,
// cache admissions under eviction pressure (a cache of a few items),
// pushed updates, re-homing handoffs and their adoptions, a graceful quit
// and revives, which empty a peer and clear its bits. Every peer's maps
// are checked against its mask every 5 simulated seconds.
func TestHeldMaskHasNoFalseNegatives(t *testing.T) {
	o := defaultHarnessOpts()
	o.mobile, o.maxSpeed = true, 10
	o.generator, o.updateInt = true, 60
	o.mutate = func(c *Config) { c.CacheBytes = 8 * 1024 }
	h := build(t, o)
	n := h.net
	if n.held != nil {
		t.Fatal("the held masks were allocated at build")
	}
	n.peers[0].mayHold(0) // the first lookup fills the masks
	requireHeldBits(t, n, "after the fill")

	const crashed = radio.NodeID(3)
	quitter := radio.NodeID(-1)
	for at := 5.0; at <= 600; at += 5 {
		n.Run(at)
		switch at {
		case 100:
			n.Crash(crashed)
		case 150:
			for _, p := range n.peers {
				if p.Alive() && p.store.Len() > 0 {
					quitter = p.id
					break
				}
			}
			n.Quit(quitter)
		case 200, 250:
			id := crashed
			if at == 250 {
				id = quitter
			}
			n.Revive(id)
			if n.held[id] != 0 {
				t.Fatalf("t=%v: revived peer %d kept the bits %#x of its emptied maps", at, id, n.held[id])
			}
		}
		requireHeldBits(t, n, fmt.Sprintf("t=%v", at))
	}

	var evictions uint64
	partial := 0
	for _, p := range n.peers {
		if p.cache != nil {
			evictions += p.cache.Evictions()
		}
		if n.held[p.id] != ^uint64(0) {
			partial++
		}
	}
	if evictions == 0 || n.stats.Handoffs == 0 || n.stats.UpdatesApplied == 0 {
		t.Fatalf("%d evictions, %d handoffs, %d updates applied: a sequence the masks must survive did not happen",
			evictions, n.stats.Handoffs, n.stats.UpdatesApplied)
	}
	if partial == 0 {
		t.Fatal("every mask has every bit set: mayHold rejected nothing, so the check tested nothing")
	}
}
