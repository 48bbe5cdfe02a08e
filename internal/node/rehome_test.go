package node

import (
	"testing"

	"precinct/internal/cache"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/workload"
)

// rehomeCounter is a Probe that counts AfterRehome calls.
type rehomeCounter struct{ passes int }

func (*rehomeCounter) OnCacheAdmit(radio.NodeID, region.ID, region.ID, workload.Key)                {}
func (*rehomeCounter) OnTTRSmoothed(radio.NodeID, workload.Key, float64, float64, float64, float64) {}
func (c *rehomeCounter) AfterRehome(*Peer, bool)                                                    { c.passes++ }

// custodianWithKeys returns a live peer that stores at least one key.
func custodianWithKeys(t *testing.T, h *harness) *Peer {
	t.Helper()
	for _, p := range h.net.peers {
		if p.Alive() && p.store.Len() > 0 {
			return p
		}
	}
	t.Fatal("no peer stores a key")
	return nil
}

// ranPass reports whether one checkMobility call ran a re-homing pass
// in full. Skipping is unobservable in the simulation by design; the
// network counts the two outcomes, and every check of a peer that stores
// something must be exactly one of them.
func ranPass(t *testing.T, p *Peer) bool {
	t.Helper()
	passes, skips := p.net.RehomeCounts()
	p.checkMobility()
	nowPasses, nowSkips := p.net.RehomeCounts()
	if (nowPasses-passes)+(nowSkips-skips) != 1 {
		t.Fatalf("one check counted %d passes and %d skips", nowPasses-passes, nowSkips-skips)
	}
	return nowPasses > passes
}

// TestRehomeSkipsOnlyProvablyCleanPasses walks one custodian through
// every input a re-homing pass depends on: a clean pass is skipped until
// the copies held (which keys, at which ranks) or the peer's region
// change, new values written over held copies change nothing,
// and the probe hears about skipped passes too. Copies left waiting for
// a custodian and evacuation have tests of their own below.
func TestRehomeSkipsOnlyProvablyCleanPasses(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	probe := &rehomeCounter{}
	h.net.SetProbe(probe)
	p := custodianWithKeys(t, h)

	if !ranPass(t, p) {
		t.Fatal("the first pass was skipped")
	}
	if p.settled != p.rehomeMarkNow() {
		t.Fatal("a pass over a custodian's own keys left copies waiting")
	}
	before := probe.passes
	if ranPass(t, p) {
		t.Fatal("a pass with nothing changed since a clean one was not skipped")
	}
	if probe.passes == before {
		t.Fatal("the probe did not hear about the skipped pass")
	}

	// Writing a new value over a held copy, which is all a pushed update
	// does, is not a custody change: the copy belongs where it belonged.
	k := p.store.Keys()[0]
	it, _ := p.store.Get(k)
	rewritten := *it
	rewritten.Version += 2
	rewritten.TTR = 17
	rewritten.UpdatedAt = h.sched.Now()
	p.store.Put(rewritten)
	applied := h.net.stats.UpdatesApplied
	h.net.applyStoredUpdate(p, k, rewritten.Version+1, h.sched.Now()+1)
	if h.net.stats.UpdatesApplied != applied+1 {
		t.Fatal("setup: the update was not applied")
	}
	if ranPass(t, p) {
		t.Fatal("a version and TTR rewrite of a held copy re-opened the question")
	}

	// Each custody change runs the pass once, and the check after it is
	// skipped again. A remove and re-insert leaves the store as it was,
	// but the pass cannot know that.
	p.store.Remove(k)
	p.store.Put(rewritten)
	if !ranPass(t, p) {
		t.Fatal("a pass after a remove and re-insert was skipped")
	}
	if ranPass(t, p) {
		t.Fatal("the pass after that one was not skipped")
	}

	// A held key Put at another rank belongs to another region: the copy
	// must leave at the next check.
	rewritten.ReplicaRank = 1
	p.store.Put(rewritten)
	handoffs := h.net.stats.Handoffs
	if !ranPass(t, p) {
		t.Fatal("a pass after a held key changed rank was skipped")
	}
	if h.net.stats.Handoffs != handoffs+1 {
		t.Fatalf("a copy at the wrong rank did not trigger a handoff (%d -> %d)", handoffs, h.net.stats.Handoffs)
	}
	if ranPass(t, p) {
		t.Fatal("the pass after that one was not skipped")
	}

	// An insert: a key that belongs to another region, arriving by Put.
	foreign := h.keyHomedIn(t, p.regionID, false)
	p.store.Put(cache.StoredItem{Key: foreign, Size: 1024, Version: 1})
	handoffs = h.net.stats.Handoffs
	if !ranPass(t, p) {
		t.Fatal("a pass after an insert was skipped")
	}
	if h.net.stats.Handoffs != handoffs+1 {
		t.Fatalf("a foreign key did not trigger a handoff (%d -> %d)", handoffs, h.net.stats.Handoffs)
	}
	if ranPass(t, p) {
		t.Fatal("the pass after that one was not skipped")
	}
	h.sched.Run(h.sched.Now() + 5)

	// The peer's region changes under it (as checkMobility records on a
	// crossing): every copy it holds is now misplaced.
	p.checkMobility()
	if ranPass(t, p) {
		t.Fatal("setup: peer did not settle before the region change")
	}
	home := p.regionID
	p.regionID = (home + 1) % region.ID(h.table.Len())
	held := p.store.Len()
	handoffs = h.net.stats.Handoffs
	p.rehomeKeys(false)
	if h.net.stats.Handoffs == handoffs || p.store.Len() == held {
		t.Fatal("a pass after a region change was skipped")
	}
	p.regionID = home
}

// TestRehomeRetriesWhileACopyWaits: when a copy's proper region has no
// live peer the copy stays put, and the pass must run again at every
// check until a custodian turns up — the store has not changed in
// between, so only the waiting flag keeps the retry alive.
func TestRehomeRetriesWhileACopyWaits(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	p := custodianWithKeys(t, h)
	foreign := h.keyHomedIn(t, p.regionID, false)
	target, _ := h.table.HomeRegion(foreign)
	var emptied []radio.NodeID
	for _, o := range h.net.peers {
		if o.regionID == target.ID {
			h.net.Crash(o.id)
			emptied = append(emptied, o.id)
		}
	}
	if len(emptied) == 0 {
		t.Fatal("setup: target region had no peers")
	}
	p.store.Put(cache.StoredItem{Key: foreign, Size: 1024, Version: 1})

	for i := 0; i < 3; i++ {
		if !ranPass(t, p) {
			t.Fatalf("check %d was skipped with a copy waiting for a custodian", i)
		}
		if p.settled != (rehomeMark{}) {
			t.Fatal("a pass that left a copy behind recorded itself as clean")
		}
		if _, ok := p.store.Get(foreign); !ok {
			t.Fatal("the waiting copy left without a custodian to go to")
		}
	}
	h.net.Revive(emptied[0])
	handoffs := h.net.stats.Handoffs
	p.checkMobility()
	if h.net.stats.Handoffs != handoffs+1 {
		t.Fatal("the waiting copy was not handed off once a custodian appeared")
	}
	if _, ok := p.store.Get(foreign); ok {
		t.Fatal("the copy is still held after its handoff")
	}
}

// TestRehomeNeverSkipsEvacuationOrARevivedStore: a graceful quit hands
// everything off although the last pass was clean, and a revived peer's
// fresh store is not mistaken for the one the mark was taken on.
func TestRehomeNeverSkipsEvacuationOrARevivedStore(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	p := custodianWithKeys(t, h)
	p.checkMobility()
	if ranPass(t, p) {
		t.Fatal("setup: peer did not settle")
	}
	mark := p.settled
	h.net.Quit(p.id)
	if p.store.Len() != 0 {
		t.Fatalf("a quitting peer kept %d keys: the evacuation pass was skipped", p.store.Len())
	}
	h.sched.Run(h.sched.Now() + 5)

	h.net.Revive(p.id)
	// Bring the fresh store to the custody generation the old mark saw,
	// holding a key that must leave.
	foreign := h.keyHomedIn(t, p.regionID, false)
	item := cache.StoredItem{Key: foreign, Size: 1024, Version: 1}
	p.store.Put(item)
	for p.store.CustodyGen() < mark.gen {
		p.store.Remove(foreign)
		p.store.Put(item)
	}
	p.settled = mark // as if nothing had recorded the revive
	p.settled.gen = p.store.CustodyGen()
	handoffs := h.net.stats.Handoffs
	p.checkMobility()
	if h.net.stats.Handoffs == handoffs {
		t.Fatal("a mark taken on the previous store suppressed a pass over the revived one")
	}
}
