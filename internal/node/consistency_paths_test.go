package node

import (
	"fmt"
	"math"
	"testing"

	"precinct/internal/cache"
	"precinct/internal/consistency"
	"precinct/internal/radio"
	"precinct/internal/workload"
)

// primeRegionalPair fetches key k at peer a, then finds another peer b in
// a's region, so that b's next request can be served regionally from a's
// cache. Returns nil b when no such pair exists in the topology.
func primeRegionalPair(t *testing.T, h *harness, k workload.Key) (a, b *Peer) {
	t.Helper()
	a = h.requesterFor(t, k)
	h.net.RequestFrom(a.ID(), k)
	h.sched.Run(h.sched.Now() + 10)
	if _, ok := a.Cache().Peek(k); !ok {
		t.Fatal("priming fetch did not cache")
	}
	for i := 0; i < h.net.Peers(); i++ {
		q := h.net.Peer(radio.NodeID(i))
		if q.ID() != a.ID() && q.RegionID() == a.RegionID() {
			if _, holds := q.Store().Get(k); !holds {
				return a, q
			}
		}
	}
	return a, nil
}

func TestPullEveryTimeValidatesRegionalAnswers(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PullEveryTime)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	a, b := primeRegionalPair(t, h, k)
	if b == nil {
		t.Skip("no regional pair available")
	}
	_ = a
	before := h.net.Report().PollsIssued
	h.net.RequestFrom(b.ID(), k)
	h.sched.Run(h.sched.Now() + 10)
	rep := h.net.Report()
	if rep.PollsIssued != before+1 {
		t.Fatalf("regional answer not validated: polls %d -> %d", before, rep.PollsIssued)
	}
	if rep.ByClass["regional"] != 1 {
		t.Fatalf("validated answer not classified regional: %v", rep.ByClass)
	}
	if rep.FalseHitRatio != 0 {
		t.Errorf("validated regional hit counted stale: %v", rep.FalseHitRatio)
	}
}

func TestAdaptivePullServesRegionalWithinTTRWithoutPoll(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	_, b := primeRegionalPair(t, h, k)
	if b == nil {
		t.Skip("no regional pair available")
	}
	before := h.net.Report().PollsIssued
	h.net.RequestFrom(b.ID(), k) // within the 30 s initial TTR
	h.sched.Run(h.sched.Now() + 10)
	rep := h.net.Report()
	if rep.PollsIssued != before {
		t.Fatalf("adaptive pull polled within TTR for a regional answer")
	}
	if rep.ByClass["regional"] != 1 {
		t.Fatalf("expected a regional hit: %v", rep.ByClass)
	}
}

func TestAdaptivePullValidatesExpiredRegionalAnswer(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	_, b := primeRegionalPair(t, h, k)
	if b == nil {
		t.Skip("no regional pair available")
	}
	// Let the cached copy's TTR (30 s initial) expire.
	h.sched.Run(h.sched.Now() + 60)
	before := h.net.Report().PollsIssued
	h.net.RequestFrom(b.ID(), k)
	h.sched.Run(h.sched.Now() + 10)
	rep := h.net.Report()
	if rep.PollsIssued != before+1 {
		t.Fatalf("expired regional answer served without validation")
	}
}

func TestPollTimeoutServesStashedReplyOptimistically(t *testing.T) {
	// Crash every store holder of k so validation polls go unanswered;
	// a regional cached answer must still be served (optimistically)
	// rather than looping or failing.
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PullEveryTime)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	_, b := primeRegionalPair(t, h, k)
	if b == nil {
		t.Skip("no regional pair available")
	}
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if _, holds := p.Store().Get(k); holds {
			h.net.Crash(p.ID())
		}
	}
	start := h.sched.Now()
	h.net.RequestFrom(b.ID(), k)
	h.sched.Run(start + 30)
	rep := h.net.Report()
	if rep.ByClass["regional"] != 1 {
		t.Fatalf("optimistic serve missing: %v", rep.ByClass)
	}
	// Latency includes the validation timeout but is bounded.
	if rep.MaxLatency > 10 {
		t.Errorf("optimistic serve took %v s", rep.MaxLatency)
	}
}

func TestUpdatePushRetriesOnRoutingFailure(t *testing.T) {
	// This exercises forwardWithRetry's bookkeeping: updates from a peer
	// whose GPSR route transiently fails must eventually reach the
	// holder or be counted as lost — never silently vanish.
	o := defaultHarnessOpts()
	o.generator = true
	o.updateInt = 20
	o.mobile = true
	o.nodes = 24 // sparse: routing failures happen
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
	}
	h := build(t, o)
	h.net.Run(400)
	st := h.net.Stats()
	if st.UpdatesApplied == 0 {
		t.Fatal("no updates applied at all")
	}
	// Bookkeeping sanity: lost updates are a small fraction of applied.
	if st.LostUpdates > st.UpdatesApplied {
		t.Errorf("lost (%d) exceeds applied (%d)", st.LostUpdates, st.UpdatesApplied)
	}
}

func TestHandoffReaimsToLiveCustodian(t *testing.T) {
	// Kill the original handoff target right after keys leave; the
	// retry logic must re-aim at another peer of the region instead of
	// dropping the keys.
	o := defaultHarnessOpts()
	o.mobile = true
	o.maxSpeed = 12
	o.generator = false
	h := build(t, o)
	h.net.Run(300)
	st := h.net.Stats()
	if st.Handoffs == 0 {
		t.Skip("no handoffs in this trace")
	}
	if st.LostKeys > st.Handoffs*2 {
		t.Errorf("too many keys lost: %d lost over %d handoffs", st.LostKeys, st.Handoffs)
	}
	// Every catalog key must still have at least one live holder.
	missing := 0
	for _, k := range h.cat.Keys() {
		found := false
		for i := 0; i < h.net.Peers() && !found; i++ {
			p := h.net.Peer(radio.NodeID(i))
			if !p.Alive() {
				continue
			}
			if _, ok := p.Store().Get(k); ok {
				found = true
			}
		}
		if !found {
			missing++
		}
	}
	if missing > h.cat.Len()/20 {
		t.Errorf("%d of %d keys have no holder after mobility", missing, h.cat.Len())
	}
}

func TestExpandingRingGrowsTTL(t *testing.T) {
	o := defaultHarnessOpts()
	o.nodes = 49
	o.rows, o.cols = 3, 3
	o.mutate = func(c *Config) {
		c.Retrieval = ExpandingRing
		c.CacheBytes = 0 // force remote search
	}
	h := build(t, o)
	// Pick a requester far from the key's owner so TTL=1 cannot reach.
	k := h.cat.Keys()[0]
	var owner *Peer
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if _, ok := p.Store().Get(k); ok {
			owner = p
			break
		}
	}
	if owner == nil {
		t.Fatal("no owner")
	}
	var far *Peer
	bestD := 0.0
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		d := h.ch.Position(p.ID()).Dist(h.ch.Position(owner.ID()))
		if d > bestD {
			far, bestD = p, d
		}
	}
	before := h.ch.Stats().BroadcastFrames
	h.net.RequestFrom(far.ID(), k)
	h.sched.Run(60)
	rep := h.net.Report()
	if rep.Completed != 1 {
		t.Fatalf("expanding ring failed: %+v", rep)
	}
	if rep.MeanLatency <= 0 {
		t.Error("ring rounds should cost latency")
	}
	// Several rounds of flooding happened.
	if h.ch.Stats().BroadcastFrames-before < 10 {
		t.Error("suspiciously few broadcasts for a far expanding-ring search")
	}
}

func TestPlainPushRefreshesHolderAndCaches(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PlainPush)
	}
	h := build(t, o)
	k := h.cat.Keys()[3]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	q := h.requesterFor(t, k)
	h.net.UpdateFrom(q.ID(), k)
	h.sched.Run(20)
	// Holder store version caught up.
	for i := 0; i < h.net.Peers(); i++ {
		peer := h.net.Peer(radio.NodeID(i))
		if it, ok := peer.Store().Get(k); ok && it.Version != 2 {
			t.Errorf("holder %d at version %d after plain push", i, it.Version)
		}
	}
	// Subsequent local hit at p is fresh.
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(30)
	if fhr := h.net.Report().FalseHitRatio; fhr != 0 {
		t.Errorf("false hits after plain push flood: %v", fhr)
	}
}

// primeRegionalPairLossy is primeRegionalPair tolerating frame loss:
// the priming fetch is retried until the copy lands in a's cache, so
// the pair is usable at any LossRate.
func primeRegionalPairLossy(t *testing.T, h *harness, k workload.Key) (a, b *Peer) {
	t.Helper()
	a = h.requesterFor(t, k)
	// A multi-hop fetch at 30% frame loss fails most attempts (every
	// hop of the request and the reply must survive), so the retry
	// budget is generous; the RNG is seeded, so the outcome is still
	// deterministic.
	for try := 0; try < 64; try++ {
		h.net.RequestFrom(a.ID(), k)
		h.sched.Run(h.sched.Now() + 10)
		if _, ok := a.Cache().Peek(k); ok {
			break
		}
	}
	if _, ok := a.Cache().Peek(k); !ok {
		t.Fatal("priming fetch did not cache even after retries")
	}
	for i := 0; i < h.net.Peers(); i++ {
		q := h.net.Peer(radio.NodeID(i))
		if q.ID() != a.ID() && q.RegionID() == a.RegionID() {
			if _, holds := q.Store().Get(k); !holds {
				return a, q
			}
		}
	}
	return a, nil
}

// TestTTRPollConvergesUnderLoss drives the validation-poll path with
// frames actually dropping: a regional answer under pull-every-time
// must still terminate — either the poll round-trip survives and the
// answer is validated, or the poll times out and the stashed reply is
// served optimistically. Either way the request completes with bounded
// latency and nothing hangs or leaks. Repeated requests keep converging
// at both paper loss points.
func TestTTRPollConvergesUnderLoss(t *testing.T) {
	for _, tc := range []struct {
		loss     float64
		requests int
	}{
		{loss: 0.1, requests: 5},
		{loss: 0.3, requests: 5},
	} {
		t.Run(fmt.Sprintf("loss=%g", tc.loss), func(t *testing.T) {
			o := defaultHarnessOpts()
			o.loss = tc.loss
			o.mutate = func(c *Config) {
				c.Consistency = consistency.DefaultConfig(consistency.PullEveryTime)
			}
			h := build(t, o)
			k := h.cat.Keys()[0]
			_, b := primeRegionalPairLossy(t, h, k)
			if b == nil {
				t.Skip("no regional pair available")
			}
			before := h.net.Report()
			for i := 0; i < tc.requests; i++ {
				h.net.RequestFrom(b.ID(), k)
				h.sched.Run(h.sched.Now() + 30)
			}
			rep := h.net.Report()
			issued := rep.Requests - before.Requests
			settled := (rep.Completed + rep.Failures) - (before.Completed + before.Failures)
			if issued != uint64(tc.requests) {
				t.Fatalf("issued %d requests, report says %d", tc.requests, issued)
			}
			if settled != issued {
				t.Fatalf("%d of %d lossy requests never settled", issued-settled, issued)
			}
			if rep.PollsIssued == before.PollsIssued {
				t.Fatal("pull-every-time issued no validation polls under loss")
			}
			// No writer exists in this scenario, so however each poll
			// fared — answered or timed out into an optimistic serve —
			// nothing stale can have been served.
			if rep.FalseHitRatio != 0 {
				t.Errorf("false hits without any update: %v", rep.FalseHitRatio)
			}
			if rep.MaxLatency > 30 {
				t.Errorf("a request took %v s; poll timeouts must bound latency", rep.MaxLatency)
			}
		})
	}
}

// nearestOutsideRequester picks the admission-eligible requester (not
// in the key's home region, not a store holder) geographically closest
// to a holder, so the fetch route stays short enough to survive heavy
// frame loss within a bounded number of retries.
func nearestOutsideRequester(t *testing.T, h *harness, k workload.Key) *Peer {
	t.Helper()
	home, _ := h.table.HomeRegion(k)
	var owner *Peer
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if _, ok := p.Store().Get(k); ok {
			owner = p
			break
		}
	}
	if owner == nil {
		t.Fatal("no store holder for key")
	}
	var best *Peer
	bestD := math.MaxFloat64
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if p.RegionID() == home.ID {
			continue
		}
		if _, holds := p.Store().Get(k); holds {
			continue
		}
		if d := h.ch.Position(p.ID()).Dist(h.ch.Position(owner.ID())); d < bestD {
			best, bestD = p, d
		}
	}
	if best == nil {
		t.Fatal("no requester outside home region")
	}
	return best
}

// TestPushInvalidationUnderLoss updates a cached key through plain-push
// floods while frames drop. The accounting contract: if the refresh
// reached the cacher, its next hit serves fresh bytes and no false hit
// is recorded; if loss starved the cacher of the update, the stale
// serve must be visible in the false-hit metrics — staleness may happen
// under loss, silent staleness may not.
func TestPushInvalidationUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.1, 0.3} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			o := defaultHarnessOpts()
			o.loss = loss
			o.mutate = func(c *Config) {
				c.Consistency = consistency.DefaultConfig(consistency.PlainPush)
			}
			h := build(t, o)
			k := h.cat.Keys()[3]
			p := nearestOutsideRequester(t, h, k)
			for try := 0; try < 64; try++ {
				h.net.RequestFrom(p.ID(), k)
				h.sched.Run(h.sched.Now() + 10)
				if _, ok := p.Cache().Peek(k); ok {
					break
				}
			}
			e, ok := p.Cache().Peek(k)
			if !ok {
				t.Fatal("priming fetch did not cache")
			}
			if e.Version != 1 {
				t.Fatalf("cached version %d before any update", e.Version)
			}

			q := h.requesterFor(t, k)
			h.net.UpdateFrom(q.ID(), k)
			h.sched.Run(h.sched.Now() + 30)

			e, ok = p.Cache().Peek(k)
			if !ok {
				// The push refresh may evict/replace; re-fetch to probe.
				h.net.RequestFrom(p.ID(), k)
				h.sched.Run(h.sched.Now() + 10)
				e, ok = p.Cache().Peek(k)
				if !ok {
					t.Skip("copy no longer cached; nothing to probe")
				}
			}
			stale := e.Version < 2

			before := h.net.Report()
			h.net.RequestFrom(p.ID(), k)
			h.sched.Run(h.sched.Now() + 10)
			rep := h.net.Report()
			if rep.Completed == before.Completed {
				t.Fatal("probe request did not complete")
			}
			staleServes := rep.StaleByClass["local"] - before.StaleByClass["local"]
			if stale && staleServes == 0 {
				t.Errorf("stale cached copy (v%d) served without being counted stale", e.Version)
			}
			if !stale && staleServes != 0 {
				t.Errorf("fresh copy counted as %d stale serves", staleServes)
			}
		})
	}
}

// TestAdaptivePullLongRunUnderLoss soaks the full adaptive-pull machine
// — TTR smoothing, pushes, validation polls, retries — on a lossy
// channel with a live update stream, and checks the conservation-style
// properties that must hold regardless of which individual frames died:
// every issued request settles, updates are either applied or counted
// lost, and polls keep flowing (the TTR estimator cannot wedge).
func TestAdaptivePullLongRunUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.1, 0.3} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			o := defaultHarnessOpts()
			o.loss = loss
			o.generator = true
			o.updateInt = 40
			o.mutate = func(c *Config) {
				c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
			}
			h := build(t, o)
			rep := h.net.Run(600)
			if rep.Requests == 0 || rep.Completed == 0 {
				t.Fatalf("lossy run went quiet: %d requests, %d completed", rep.Requests, rep.Completed)
			}
			if rep.Completed+rep.Failures != rep.Requests {
				t.Errorf("request accounting leaked: %d issued, %d completed + %d failed",
					rep.Requests, rep.Completed, rep.Failures)
			}
			if rep.PollsIssued == 0 {
				t.Error("no validation polls in a 600 s adaptive-pull run")
			}
			st := h.net.Stats()
			if st.UpdatesApplied == 0 {
				t.Error("no update ever applied despite a live update stream")
			}
			if rep.FalseHitRatio < 0 || rep.FalseHitRatio > 1 {
				t.Errorf("false-hit ratio out of range: %v", rep.FalseHitRatio)
			}
		})
	}
}

func TestConsistencySchemeOrderingSmallScale(t *testing.T) {
	// The paper's headline ordering must hold even at test scale:
	// control overhead plain-push > pull >= adaptive.
	run := func(scheme consistency.Scheme) uint64 {
		o := defaultHarnessOpts()
		o.nodes = 49
		o.rows, o.cols = 3, 3
		o.generator = true
		o.updateInt = 30
		o.seed = 5
		o.mutate = func(c *Config) {
			c.Consistency = consistency.DefaultConfig(scheme)
		}
		h := build(t, o)
		rep := h.net.Run(500)
		return rep.ControlMessages
	}
	plain := run(consistency.PlainPush)
	pull := run(consistency.PullEveryTime)
	adaptive := run(consistency.PushAdaptivePull)
	if plain <= pull {
		t.Errorf("plain-push (%d) should exceed pull-every-time (%d)", plain, pull)
	}
	if adaptive > pull {
		t.Errorf("adaptive (%d) should not exceed pull-every-time (%d)", adaptive, pull)
	}
}

// TestStoredUpdateFollowsEquation2 holds applyStoredUpdate, the rule a
// holder applies to every pushed update in every run, to Equation 2 at
// its edges.
func TestStoredUpdateFollowsEquation2(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	cfg := h.net.cfg.Consistency
	p := custodianWithKeys(t, h)
	k := p.store.Keys()[0]
	held, _ := p.store.Get(k)
	base := *held
	set := func(version uint64, ttr, updatedAt float64) {
		it := base
		it.Version, it.TTR, it.UpdatedAt = version, ttr, updatedAt
		p.store.Put(it)
	}
	apply := func(version uint64, now float64) cache.StoredItem {
		h.net.applyStoredUpdate(p, k, version, now)
		it, _ := p.store.Get(k)
		return *it
	}

	t.Run("negative interval clamps to 0", func(t *testing.T) {
		// An update stamped before the last one (reordered delivery).
		set(3, 30, 100)
		if got, want := apply(4, 50), consistency.SmoothTTR(cfg.Alpha, 30, 0); got.TTR != want || got.Version != 4 || got.UpdatedAt != 50 {
			t.Errorf("%+v, want TTR %v, version 4 at t=50", got, want)
		}
	})
	t.Run("non-positive TTR reseeds", func(t *testing.T) {
		for _, ttr := range []float64{0, -5} {
			set(1, ttr, 10)
			if got, want := apply(2, 20), consistency.SmoothTTR(cfg.Alpha, cfg.InitialTTR, 10); got.TTR != want {
				t.Errorf("TTR %v: smoothed to %v, want %v from the seed %v", ttr, got.TTR, want, cfg.InitialTTR)
			}
		}
	})
	t.Run("TTR tracks update intervals", func(t *testing.T) {
		for _, interval := range []float64{5, 100} {
			set(1, cfg.InitialTTR, 0)
			var got cache.StoredItem
			for v := uint64(2); v <= 40; v++ {
				got = apply(v, float64(v-1)*interval)
			}
			if math.Abs(got.TTR-interval) > 1e-3*interval {
				t.Errorf("updates every %v s: TTR %v", interval, got.TTR)
			}
		}
	})
	t.Run("faster updates shrink TTR", func(t *testing.T) {
		// Ten updates from the seed: not yet converged, already ordered.
		ttrAfter := func(interval float64) float64 {
			set(1, cfg.InitialTTR, 0)
			var got cache.StoredItem
			for v := uint64(2); v <= 11; v++ {
				got = apply(v, float64(v-1)*interval)
			}
			return got.TTR
		}
		if fast, slow := ttrAfter(5), ttrAfter(100); fast >= slow {
			t.Errorf("TTR every 5 s (%v) should be below TTR every 100 s (%v)", fast, slow)
		}
	})
	t.Run("stale or equal version ignored", func(t *testing.T) {
		set(5, 30, 10)
		applied := h.net.stats.UpdatesApplied
		for _, version := range []uint64{5, 4} {
			if got := apply(version, 20); got.Version != 5 || got.TTR != 30 || got.UpdatedAt != 10 {
				t.Errorf("version %d over 5 changed the copy: %+v", version, got)
			}
		}
		if h.net.stats.UpdatesApplied != applied {
			t.Errorf("stale updates counted as applied: %d -> %d", applied, h.net.stats.UpdatesApplied)
		}
	})
}
