package node

import (
	"reflect"
	"testing"

	"precinct/internal/consistency"
	"precinct/internal/radio"
)

// These tests pin the pooled message lifecycle contract (DESIGN.md
// section 12): every acquired message is released exactly once, on every
// path a message can die on — delivery, send-time loss, mid-flight loss,
// dead receivers, and the broadcast duplicate fast path. MsgPoolLive is
// the probe: unref panics on a double release, so live == 0 at a
// quiescent point proves exactly-once.

// startDrivers arms the autonomous driver processes and returns how many
// there are. Each is one pending event that re-arms itself whenever it
// fires (the harness has no warmup, so no one-shot meter reset), which
// makes the count a constant of the run.
func startDrivers(h *harness) int {
	h.net.Run(0)
	return h.sched.Len()
}

// drainTo runs the network to the horizon and then steps until it
// reaches a quiescent boundary: no request is outstanding and only the
// drivers remain pending, so every in-flight message, timeout chain and
// retry has fully resolved.
func drainTo(t *testing.T, h *harness, drivers int, run float64) {
	t.Helper()
	h.net.Run(run)
	deadline := run + 4000
	for h.net.PendingRequests() != 0 || h.sched.Len() != drivers {
		if !h.sched.Step(deadline) {
			t.Fatalf("no quiescent point before t=%v", deadline)
		}
	}
}

// TestLifecycleLossyQuiescence: a lossy, mobile, full-protocol run ends
// with zero live pooled messages — mid-flight losses and send-time losses
// all settle through the drop handler.
func TestLifecycleLossyQuiescence(t *testing.T) {
	o := defaultHarnessOpts()
	o.mobile = true
	o.generator = true
	o.updateInt = 60
	o.loss = 0.3
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PullEveryTime)
	}
	h := build(t, o)
	drainTo(t, h, startDrivers(h), 400)

	if n := h.net.PendingRequests(); n != 0 {
		t.Fatalf("%d pending requests after drain", n)
	}
	if live := h.net.MsgPoolLive(); live != 0 {
		t.Fatalf("%d live pooled messages at quiescence (acquired %d, released %d)",
			live, h.net.pool.acquired, h.net.pool.released)
	}
	if h.net.pool.acquired < 1000 {
		t.Fatalf("only %d messages acquired; the run is too quiet to prove anything", h.net.pool.acquired)
	}
	if drops := h.ch.Stats().Drops; drops == 0 {
		t.Fatal("no injected losses occurred; the lossy release path was not exercised")
	}
}

// TestLifecycleCrashQuiescence: crashing peers mid-run (dead-receiver
// drops, retries against dead forwarders, failed requests) still drains
// to zero live messages.
func TestLifecycleCrashQuiescence(t *testing.T) {
	o := defaultHarnessOpts()
	o.mobile = true
	o.generator = true
	o.updateInt = 60
	o.loss = 0.1
	h := build(t, o)
	drivers := startDrivers(h)

	h.net.Run(100)
	for id := radio.NodeID(0); id < 12; id++ {
		h.net.Crash(id)
	}
	drainTo(t, h, drivers, 400)

	if n := h.net.PendingRequests(); n != 0 {
		t.Fatalf("%d pending requests after drain", n)
	}
	if live := h.net.MsgPoolLive(); live != 0 {
		t.Fatalf("%d live pooled messages at quiescence (acquired %d, released %d)",
			live, h.net.pool.acquired, h.net.pool.released)
	}
	if h.net.pool.acquired < 1000 {
		t.Fatalf("only %d messages acquired; the run is too quiet to prove anything", h.net.pool.acquired)
	}
}

// TestLifecyclePoisonQuiescence re-runs the lossy scenario with released
// messages poisoned: any handler touching a message after releasing it
// dispatches on a scrambled kind and panics, so a clean completion is a
// use-after-release proof, not just a leak check.
func TestLifecyclePoisonQuiescence(t *testing.T) {
	t.Setenv("PRECINCT_DEBUG", "poison")
	o := defaultHarnessOpts()
	o.mobile = true
	o.generator = true
	o.updateInt = 60
	o.loss = 0.3
	h := build(t, o)
	if !h.net.pool.poison {
		t.Fatal("poison mode did not arm")
	}
	drainTo(t, h, startDrivers(h), 400)
	if live := h.net.MsgPoolLive(); live != 0 {
		t.Fatalf("%d live pooled messages at quiescence", live)
	}
}

// TestLifecycleDedupFastPathReleases drives the broadcast duplicate fast
// path directly: a shared broadcast payload delivered to a receiver that
// has already seen the flood must drop exactly one reference without
// taking a header copy, and a fresh receiver must exchange its reference
// for a copy that its handler then releases, leaving the shared payload
// as it found it for the receivers still to come.
func TestLifecycleDedupFastPathReleases(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	n := h.net

	p2 := n.Peer(2)
	key := h.keyHomedIn(t, p2.regionID, false) // p2 is not a holder
	if _, ok := p2.store.Get(key); ok {
		t.Fatal("test key unexpectedly stored at the receiver")
	}

	base := n.MsgPoolLive()
	m := n.newMsg(message{Kind: kindSearchFlood, ID: 1, FloodID: 42, Key: key, Origin: 0, TTL: 1})
	m.refs = 3 // as if the broadcast scheduled three receivers

	n.Peer(1).markSeen(m)
	n.handleFrame(1, radio.Frame{From: 0, Broadcast: true, Payload: m})
	if got := n.MsgPoolLive(); got != base+1 {
		t.Fatalf("after duplicate delivery: %d live messages, want %d (one shared ref dropped)", got, base+1)
	}
	if m.released {
		t.Fatal("shared payload released while a reference was outstanding")
	}

	// Fresh receiver: header copy acquired, shared ref released, TTL=1 so
	// the handler releases the copy instead of rebroadcasting.
	want := *m
	want.refs--
	n.handleFrame(2, radio.Frame{From: 0, Broadcast: true, Payload: m})
	if got := n.MsgPoolLive(); got != base+1 {
		t.Fatalf("after a fresh delivery: %d live messages, want %d (the copy released, one shared ref left)", got, base+1)
	}
	if !reflect.DeepEqual(*m, want) {
		t.Fatalf("a receiver wrote to the shared payload:\n got  %+v\n want %+v", *m, want)
	}

	n.handleFrame(1, radio.Frame{From: 0, Broadcast: true, Payload: m})
	if got := n.MsgPoolLive(); got != base {
		t.Fatalf("after final delivery: %d live messages, want %d", got, base)
	}
	if !m.released {
		t.Fatal("shared payload not returned to the pool after its last reference")
	}
}

// floodDelivery builds a shared search-flood payload for `copies`
// receivers, marked by its origin (peer 0) as a birth site does, and a
// function that delivers one copy to peer `to` at time `at` and reports
// whether the receiver handled it as fresh: only the fresh path takes a
// header copy from the pool. The key is homed away from the receiver and
// TTL is 1, so a fresh copy dies in its handler.
func floodDelivery(t *testing.T, h *harness, to radio.NodeID, copies int32) (*message, func(at float64) bool) {
	t.Helper()
	n := h.net
	key := h.keyHomedIn(t, n.Peer(to).regionID, false)
	m := n.newMsg(message{Kind: kindSearchFlood, ID: 1, FloodID: 42, Key: key, Origin: 0, TTL: 1})
	n.Peer(0).markSeen(m)
	m.refs = copies
	return m, func(at float64) bool {
		h.sched.Run(at)
		before := n.pool.acquired
		n.handleFrame(to, radio.Frame{From: 0, Broadcast: true, Payload: m})
		return n.pool.acquired > before
	}
}

// TestFloodCopyAfterRetentionIsFresh delivers copies of one flood to one
// peer through handleFrame: a mark at t=10 suppresses a copy at 129.5,
// but not one exactly seenRetention later, which is handled as fresh and
// marks again.
func TestFloodCopyAfterRetentionIsFresh(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	base := h.net.MsgPoolLive()
	m, deliver := floodDelivery(t, h, 2, 4)
	for i, c := range []struct {
		at    float64
		fresh bool
	}{{10, true}, {129.5, false}, {10 + seenRetention, true}, {10 + seenRetention, false}} {
		if got := deliver(c.at); got != c.fresh {
			t.Fatalf("copy %d at t=%v: handled as fresh = %v, want %v", i, c.at, got, c.fresh)
		}
	}
	if !m.released || h.net.MsgPoolLive() != base {
		t.Fatalf("payload released = %v, %d live messages (want %d)", m.released, h.net.MsgPoolLive(), base)
	}
}

// TestFloodMarksSurviveCrashRevive: a peer that marked a flood, crashed
// and came back still suppresses the flood's copies — Revive empties the
// stores, not the flood records.
func TestFloodMarksSurviveCrashRevive(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	base := h.net.MsgPoolLive()
	m, deliver := floodDelivery(t, h, 2, 2)
	if !deliver(1) {
		t.Fatal("the first copy was not handled as fresh")
	}
	h.net.Crash(2)
	h.net.Revive(2)
	if deliver(2) {
		t.Fatal("a revived peer handled a copy of a flood it had marked as fresh")
	}
	if !m.released || h.net.MsgPoolLive() != base {
		t.Fatalf("payload released = %v, %d live messages (want %d)", m.released, h.net.MsgPoolLive(), base)
	}
}

// TestLifecycleDeadReceiverReleases covers both dead-receiver release
// paths: the radio-level DeadDrop (delivery scheduled, receiver dies
// before it fires) and the direct handleFrame dead-peer guard.
func TestLifecycleDeadReceiverReleases(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	n := h.net

	nbrs := h.ch.Neighbors(0)
	if len(nbrs) == 0 {
		t.Fatal("node 0 has no neighbors")
	}
	to := nbrs[0].ID

	base := n.MsgPoolLive()
	m := n.newMsg(message{Kind: kindReply, ID: 7, Origin: to, OriginPos: h.ch.Position(to)})
	if !n.unicast(0, to, m) {
		t.Fatal("unicast to a live neighbor failed")
	}
	n.Crash(to)
	h.sched.Run(1) // the in-flight delivery resolves as a DeadDrop
	if got := n.MsgPoolLive(); got != base {
		t.Fatalf("after dead-receiver drop: %d live messages, want %d", got, base)
	}
	if h.ch.Stats().DeadDrops == 0 {
		t.Fatal("no DeadDrop was recorded; the radio release path was not exercised")
	}

	// Direct dispatch to a dead peer settles ownership in handleFrame.
	m2 := n.newMsg(message{Kind: kindReply, ID: 8, Origin: to})
	n.handleFrame(to, radio.Frame{From: 0, To: to, Payload: m2})
	if got := n.MsgPoolLive(); got != base {
		t.Fatalf("after dead-peer dispatch: %d live messages, want %d", got, base)
	}
}

// TestLifecycleSendTimeLossReleases: a unicast lost at send time settles
// synchronously through the drop handler before Unicast returns.
func TestLifecycleSendTimeLossReleases(t *testing.T) {
	o := defaultHarnessOpts()
	o.loss = 0.9
	h := build(t, o)
	n := h.net

	nbrs := h.ch.Neighbors(0)
	if len(nbrs) == 0 {
		t.Fatal("node 0 has no neighbors")
	}
	to := nbrs[0].ID

	base := n.MsgPoolLive()
	for i := 0; i < 50; i++ {
		m := n.newMsg(message{Kind: kindReply, ID: uint64(100 + i), Origin: to, OriginPos: h.ch.Position(to)})
		if !n.unicast(0, to, m) {
			t.Fatal("unicast to a live neighbor failed")
		}
		h.sched.Run(h.sched.Now() + 1) // deliver the survivors
		if got := n.MsgPoolLive(); got != base {
			t.Fatalf("send %d: %d live messages, want %d", i, got, base)
		}
	}
	if h.ch.Stats().Drops == 0 {
		t.Fatal("no send-time losses at 90%; the loss release path was not exercised")
	}
}

// TestLifecycleDoubleReleasePanics pins the double-release guard: it must
// fire in every mode, not only under poison.
func TestLifecycleDoubleReleasePanics(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	n := h.net
	m := n.newMsg(message{Kind: kindReply, ID: 9})
	n.releaseMsg(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	n.releaseMsg(m)
}

// TestForwardAllocFree is the alloc floor for the end-to-end GPSR
// forwarding cycle: acquiring a pooled reply, routing it several hops
// through the radio (event freelist, delivery freelist, in-place unicast
// mutation) until the addressee releases it must not allocate once the
// pools are warm.
func TestForwardAllocFree(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	n := h.net

	// Pick a destination a few hops out (grid spacing ~200, range 250).
	origin := radio.NodeID(0)
	var far radio.NodeID = -1
	for id := 0; id < h.net.Peers(); id++ {
		d := h.ch.Position(origin).Dist(h.ch.Position(radio.NodeID(id)))
		if d > 500 && d < 700 {
			far = radio.NodeID(id)
			break
		}
	}
	if far < 0 {
		t.Fatal("no 3-hop destination in the grid")
	}
	pos := h.ch.Position(far)

	forward := func() {
		m := n.newMsg(message{Kind: kindReply, ID: 7, Origin: far, OriginPos: pos})
		n.routeOwned(n.Peer(origin), m)
		h.sched.RunAll()
		if live := n.MsgPoolLive(); live != 0 {
			t.Fatalf("%d live messages after the forward drained", live)
		}
	}
	for i := 0; i < 16; i++ {
		forward() // warm the pools and per-epoch position caches
	}

	avg := testing.AllocsPerRun(200, forward)
	if avg >= 1 {
		t.Errorf("multi-hop GPSR forward allocates %.2f objects/cycle, want < 1", avg)
	}
}
