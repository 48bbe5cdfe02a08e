package node

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"precinct/internal/consistency"
	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// harness bundles a fully wired test network.
type harness struct {
	net   *Network
	sched *sim.Scheduler
	ch    *radio.Channel
	table *region.Table
	cat   *workload.Catalog
	coll  *metrics.Collector
	meter *energy.Meter
}

type harnessOpts struct {
	nodes      int
	areaSide   float64
	rows, cols int
	seed       int64
	mobile     bool
	maxSpeed   float64
	loss       float64
	generator  bool
	updateInt  float64
	catalog    workload.CatalogConfig
	mutate     func(*Config)
}

func defaultHarnessOpts() harnessOpts {
	return harnessOpts{
		nodes:    36,
		areaSide: 1200,
		rows:     3, cols: 3,
		seed:    1,
		catalog: workload.CatalogConfig{Items: 200, MinSize: 1024, MaxSize: 4096},
	}
}

func build(t *testing.T, o harnessOpts) *harness {
	t.Helper()
	rng := sim.NewRNG(o.seed)
	sched := sim.NewScheduler()
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(o.areaSide, o.areaSide))

	var mob mobility.Model
	var err error
	if o.mobile {
		speed := o.maxSpeed
		if speed == 0 {
			speed = 6
		}
		mob, err = mobility.NewWaypoint(o.nodes, mobility.WaypointConfig{
			Area: area, MinSpeed: 0.5, MaxSpeed: speed, Pause: 5,
		}, rng)
	} else {
		mob, err = mobility.NewGridStatic(o.nodes, area, 0.2, rng.Stream("placement"))
	}
	if err != nil {
		t.Fatal(err)
	}

	meter, err := energy.NewMeter(o.nodes, energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	radioCfg := radio.DefaultConfig()
	radioCfg.LossRate = o.loss
	loss := make([]*rand.Rand, o.nodes)
	for i := range loss {
		loss[i] = rng.Stream(fmt.Sprintf("loss/%d", i))
	}
	ch, err := radio.New(radioCfg, sched, mob, meter, loss)
	if err != nil {
		t.Fatal(err)
	}
	table, err := region.NewGrid(area, o.rows, o.cols)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(o.catalog)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Warmup = 0
	if o.mutate != nil {
		o.mutate(&cfg)
	}

	// src stays a nil interface when the harness drives traffic by hand;
	// assigning a nil *Generator-backed source here would defeat the
	// network's src == nil checks.
	var src workload.Source
	var arr *workload.Arrivals
	if o.generator {
		gen, err := workload.NewGenerator(workload.GeneratorConfig{
			Catalog: cat, ZipfTheta: 0.8, RequestInterval: 30, UpdateInterval: o.updateInt,
		})
		if err != nil {
			t.Fatal(err)
		}
		src, arr = workload.DefaultSource{Gen: gen}, gen.Arrivals()
	}

	coll := metrics.NewCollector()
	net, err := New(Options{
		Config: cfg, Scheduler: sched, Channel: ch, Regions: table,
		Catalog: cat, Source: src, Arrivals: arr, Collector: coll, Meter: meter, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, sched: sched, ch: ch, table: table, cat: cat, coll: coll, meter: meter}
}

// keyHomedIn finds a key whose home region is (or is not) the given one.
func (h *harness) keyHomedIn(t *testing.T, want region.ID, equal bool) workload.Key {
	t.Helper()
	for _, k := range h.cat.Keys() {
		home, ok := h.table.HomeRegion(k)
		if !ok {
			continue
		}
		if (home.ID == want) == equal {
			return k
		}
	}
	t.Fatal("no key with requested home region relation")
	return 0
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Retrieval = RetrievalScheme(9) },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.CacheBytes = -1 },
		func(c *Config) { c.Replicas = -1 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Consistency.Alpha = 2 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRetrievalSchemeStrings(t *testing.T) {
	for _, s := range []RetrievalScheme{PReCinCt, Flooding, ExpandingRing} {
		parsed, err := ParseRetrievalScheme(s.String())
		if err != nil || parsed != s {
			t.Errorf("round trip failed for %v", s)
		}
	}
	if _, err := ParseRetrievalScheme("nope"); err == nil {
		t.Error("bogus retrieval scheme parsed")
	}
	if RetrievalScheme(7).String() != "retrieval(7)" {
		t.Error("unknown scheme String")
	}
}

func TestNewRequiresDependencies(t *testing.T) {
	if _, err := New(Options{Config: DefaultConfig()}); err == nil {
		t.Error("New without dependencies accepted")
	}
	// Source picks keys and Arrivals times them: StartDrivers needs both
	// or neither.
	h := build(t, defaultHarnessOpts())
	gen, err := workload.NewGenerator(workload.GeneratorConfig{Catalog: h.cat, ZipfTheta: 0.8, RequestInterval: 30})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Config: DefaultConfig(), Scheduler: h.sched, Channel: h.ch, Regions: h.table,
		Catalog: h.cat, Collector: metrics.NewCollector(),
	}
	srcOnly, arrOnly := base, base
	srcOnly.Source = workload.DefaultSource{Gen: gen}
	arrOnly.Arrivals = gen.Arrivals()
	for _, o := range []Options{srcOnly, arrOnly} {
		if _, err := New(o); err == nil || !strings.Contains(err.Error(), "Arrivals") {
			t.Errorf("Source set %v, Arrivals set %v: err = %v, want the pairing error",
				o.Source != nil, o.Arrivals != nil, err)
		}
	}
}

func TestInitialPlacement(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	// Every key must have at least one holder located in its home
	// region, and with replication at least one in the replica region.
	holders := make(map[workload.Key]int)
	repHolders := make(map[workload.Key]int)
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		for _, k := range p.Store().Keys() {
			home, _ := h.table.HomeRegion(k)
			rep, _ := h.table.ReplicaRegionAt(k, 1)
			pos := h.ch.Position(p.ID())
			switch {
			case home.Bounds.Contains(pos):
				holders[k]++
			case rep.Bounds.Contains(pos):
				repHolders[k]++
			default:
				t.Errorf("key %d stored outside home and replica regions", k)
			}
		}
	}
	for _, k := range h.cat.Keys() {
		if holders[k] == 0 {
			t.Errorf("key %d has no home-region holder", k)
		}
		if repHolders[k] == 0 {
			t.Errorf("key %d has no replica holder", k)
		}
		if h.net.Truth(k) != 1 {
			t.Errorf("key %d truth = %d, want 1", k, h.net.Truth(k))
		}
	}
}

func TestPlacementWithoutReplication(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) { c.Replicas = 0 }
	h := build(t, o)
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		for _, k := range p.Store().Keys() {
			home, _ := h.table.HomeRegion(k)
			if !home.Bounds.Contains(h.ch.Position(p.ID())) {
				t.Errorf("key %d stored outside home region with replication off", k)
			}
		}
	}
}

// requesterFor returns a peer in a different region from the key's home.
func (h *harness) requesterFor(t *testing.T, k workload.Key) *Peer {
	t.Helper()
	home, _ := h.table.HomeRegion(k)
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if p.RegionID() != home.ID {
			if _, holds := p.Store().Get(k); !holds {
				return p
			}
		}
	}
	t.Fatal("no requester outside home region")
	return nil
}

func TestRemoteFetchSucceeds(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	rep := h.net.Report()
	if rep.Requests != 1 || rep.Failures != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ByClass["remote"] != 1 {
		t.Errorf("expected a remote hit, got %v", rep.ByClass)
	}
	if rep.MeanLatency <= 0 {
		t.Error("remote fetch with zero latency")
	}
	// The item must now be cached at the requester (admission control
	// allows it: responder in a different region).
	if _, ok := p.Cache().Peek(k); !ok {
		t.Error("fetched item not cached")
	}
}

func TestLocalHitOnSecondRequest(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(20)
	rep := h.net.Report()
	if rep.ByClass["local"] != 1 {
		t.Fatalf("second request not a local hit: %v", rep.ByClass)
	}
}

func TestRegionalHitFromNeighborCache(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	k := h.cat.Keys()[1]
	a := h.requesterFor(t, k)
	h.net.RequestFrom(a.ID(), k)
	h.sched.Run(10)
	// Another peer in A's region now requests the same key: A's cached
	// copy answers regionally.
	var b *Peer
	for i := 0; i < h.net.Peers(); i++ {
		q := h.net.Peer(radio.NodeID(i))
		if q.ID() != a.ID() && q.RegionID() == a.RegionID() {
			if _, holds := q.Store().Get(k); !holds {
				b = q
				break
			}
		}
	}
	if b == nil {
		t.Skip("no second peer in requester region")
	}
	h.net.RequestFrom(b.ID(), k)
	h.sched.Run(20)
	rep := h.net.Report()
	if rep.ByClass["regional"] != 1 {
		t.Fatalf("expected regional hit: %v", rep.ByClass)
	}
	// Admission control: B must NOT cache an item served from its own
	// region.
	if _, ok := b.Cache().Peek(k); ok {
		t.Error("regional hit was cached despite admission control")
	}
}

func TestRequestInsideHomeRegionIsRegional(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	// Requester inside the key's home region, not holding it.
	var p *Peer
	var key workload.Key
	found := false
	for i := 0; i < h.net.Peers() && !found; i++ {
		q := h.net.Peer(radio.NodeID(i))
		for _, k := range h.cat.Keys() {
			home, _ := h.table.HomeRegion(k)
			if home.ID == q.RegionID() {
				if _, holds := q.Store().Get(k); !holds {
					p, key, found = q, k, true
					break
				}
			}
		}
	}
	if !found {
		t.Skip("no suitable peer/key pair")
	}
	h.net.RequestFrom(p.ID(), key)
	h.sched.Run(10)
	rep := h.net.Report()
	if rep.ByClass["regional"] != 1 {
		t.Fatalf("expected regional hit inside home region: %v", rep.ByClass)
	}
	if _, ok := p.Cache().Peek(key); ok {
		t.Error("home-region item cached despite admission control")
	}
}

func TestFloodingRetrievalWorks(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) { c.Retrieval = Flooding }
	h := build(t, o)
	k := h.cat.Keys()[2]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	rep := h.net.Report()
	if rep.Completed != 1 {
		t.Fatalf("flooding retrieval failed: %+v", rep)
	}
}

func TestExpandingRingRetrievalWorks(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) { c.Retrieval = ExpandingRing }
	h := build(t, o)
	k := h.cat.Keys()[3]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(30)
	rep := h.net.Report()
	if rep.Completed != 1 {
		t.Fatalf("expanding ring retrieval failed: %+v", rep)
	}
}

func TestFloodingCostsMoreEnergyThanPReCinCt(t *testing.T) {
	run := func(scheme RetrievalScheme) float64 {
		o := defaultHarnessOpts()
		o.mutate = func(c *Config) {
			c.Retrieval = scheme
			c.CacheBytes = 0 // the Section 5 validation setup
		}
		h := build(t, o)
		for i := 0; i < 20; i++ {
			k := h.cat.Keys()[i]
			p := h.requesterFor(t, k)
			h.net.RequestFrom(p.ID(), k)
			h.sched.Run(float64(10 * (i + 1)))
		}
		return h.meter.Total()
	}
	fl := run(Flooding)
	pc := run(PReCinCt)
	if fl <= pc {
		t.Errorf("flooding energy %v should exceed PReCinCt %v", fl, pc)
	}
}

func TestUpdatePropagatesToHomeRegion(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	h.net.UpdateFrom(p.ID(), k)
	h.sched.Run(10)
	if h.net.Truth(k) != 2 {
		t.Fatalf("truth = %d, want 2", h.net.Truth(k))
	}
	// Every store holder of k must now have version 2.
	for i := 0; i < h.net.Peers(); i++ {
		q := h.net.Peer(radio.NodeID(i))
		if it, ok := q.Store().Get(k); ok {
			if it.Version != 2 {
				t.Errorf("holder %d has version %d, want 2", i, it.Version)
			}
			if it.TTR <= 0 {
				t.Errorf("holder %d has TTR %v", i, it.TTR)
			}
		}
	}
	if h.net.Stats().UpdatesApplied == 0 {
		t.Error("no updates applied")
	}
}

func TestPlainPushInvalidatesEverywhere(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PlainPush)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	// Fetch so p caches version 1.
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	e, ok := p.Cache().Peek(k)
	if !ok || e.Version != 1 {
		t.Fatalf("setup failed: %+v %v", e, ok)
	}
	// Now another peer updates; the flood must refresh p's copy.
	q := h.requesterFor(t, k)
	h.net.UpdateFrom(q.ID(), k)
	h.sched.Run(20)
	e, ok = p.Cache().Peek(k)
	if !ok || e.Version != 2 {
		t.Fatalf("plain push did not refresh cached copy: %+v", e)
	}
	rep := h.net.Report()
	if rep.ControlMessages == 0 {
		t.Error("plain push generated no control messages")
	}
}

func TestPullEveryTimePollsOnEveryHit(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PullEveryTime)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	// Second request: cached, but pull-every-time must poll.
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(20)
	rep := h.net.Report()
	if rep.PollsIssued != 1 {
		t.Fatalf("polls issued = %d, want 1", rep.PollsIssued)
	}
	if rep.ByClass["local"] != 1 {
		t.Fatalf("validated hit not recorded local: %v", rep.ByClass)
	}
	// The poll round trip must show up as latency.
	if rep.MeanLatency <= 0 {
		t.Error("poll round trip had zero latency")
	}
	if h.net.Stats().PollsAnswered == 0 {
		t.Error("no polls answered")
	}
}

func TestAdaptivePullServesFromCacheUntilTTRExpiry(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	// Within the TTR (30 s initial): local hit without polling.
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(20)
	rep := h.net.Report()
	if rep.PollsIssued != 0 {
		t.Fatalf("adaptive pull polled within TTR: %d polls", rep.PollsIssued)
	}
	if rep.ByClass["local"] != 1 {
		t.Fatalf("expected unvalidated local hit: %v", rep.ByClass)
	}
	// After the TTR expires, the next hit polls.
	h.sched.Run(60)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(80)
	rep = h.net.Report()
	if rep.PollsIssued != 1 {
		t.Fatalf("adaptive pull did not poll after TTR expiry: %d", rep.PollsIssued)
	}
}

func TestStalePollFetchesNewData(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PullEveryTime)
	}
	h := build(t, o)
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	// Update elsewhere: p's cached version 1 is now stale.
	q := h.requesterFor(t, k)
	h.net.UpdateFrom(q.ID(), k)
	h.sched.Run(20)
	// p requests again: the poll discovers staleness and the holder
	// ships the new data (conditional GET).
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(30)
	e, ok := p.Cache().Peek(k)
	if !ok || e.Version != 2 {
		t.Fatalf("stale poll did not refresh data: %+v %v", e, ok)
	}
	rep := h.net.Report()
	if rep.FalseHitRatio != 0 {
		t.Errorf("pull-every-time produced false hits: %v", rep.FalseHitRatio)
	}
}

func TestGracefulQuitHandsKeysOff(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	// Find a holder with keys.
	var holder *Peer
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if p.Store().Len() > 0 {
			holder = p
			break
		}
	}
	if holder == nil {
		t.Fatal("no holder found")
	}
	keys := holder.Store().Keys()
	h.net.Quit(holder.ID())
	h.sched.Run(5)
	if holder.Alive() {
		t.Fatal("peer still alive after Quit")
	}
	// The keys must now be held by other peers.
	for _, k := range keys {
		found := false
		for i := 0; i < h.net.Peers(); i++ {
			p := h.net.Peer(radio.NodeID(i))
			if !p.Alive() {
				continue
			}
			if _, ok := p.Store().Get(k); ok {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("key %d lost after graceful quit", k)
		}
	}
}

// TestReplicaServesAfterHomeRegionCrash walks the remote ladder past
// dead regions: with the regions of ranks 0..killed-1 crashed, a request
// from outside them (and outside rank killed's region, so no flood of
// the requester's finds the key) completes exactly when rank killed is
// one of the key's Replicas replica regions. En-route answers are off: a
// leg toward a dead region can pass a live custodian, which would answer
// without the walk reaching its rank.
func TestReplicaServesAfterHomeRegionCrash(t *testing.T) {
	for _, c := range []struct {
		replicas, killed int
		served           bool
	}{
		{1, 1, true}, {2, 2, true}, {3, 3, true},
		{0, 1, false}, {1, 2, false}, {2, 3, false},
	} {
		t.Run(fmt.Sprintf("replicas=%d/killed=%d", c.replicas, c.killed), func(t *testing.T) {
			o := defaultHarnessOpts()
			o.mutate = func(cfg *Config) {
				cfg.Replicas = c.replicas
				cfg.EnRoute = false
			}
			h := build(t, o)
			k := h.cat.Keys()[0]
			avoid := map[region.ID]bool{}
			for r := 0; r <= c.killed; r++ {
				reg, ok := h.table.ReplicaRegionAt(k, r)
				if !ok {
					t.Fatalf("no rank-%d region", r)
				}
				avoid[reg.ID] = true
				for i := 0; r < c.killed && i < h.net.Peers(); i++ {
					if id := radio.NodeID(i); reg.Bounds.Contains(h.ch.Position(id)) {
						h.net.Crash(id)
					}
				}
			}
			var requester *Peer
			for i := 0; i < h.net.Peers() && requester == nil; i++ {
				if p := h.net.Peer(radio.NodeID(i)); p.Alive() && !avoid[p.RegionID()] {
					requester = p
				}
			}
			if requester == nil {
				t.Fatal("no requester available")
			}
			h.net.RequestFrom(requester.ID(), k)
			h.sched.Run(30)
			report := h.net.Report()
			if c.served && report.Completed != 1 {
				t.Fatalf("request failed with rank %d alive: %+v", c.killed, report)
			}
			if !c.served && report.Failures != 1 {
				t.Fatalf("request did not fail with every rank dead: %+v", report)
			}
		})
	}
}

func TestNoReplicationFailsAfterHomeRegionCrash(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) { c.Replicas = 0 }
	h := build(t, o)
	k := h.cat.Keys()[0]
	home, _ := h.table.HomeRegion(k)
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if home.Bounds.Contains(h.ch.Position(p.ID())) {
			h.net.Crash(p.ID())
		}
	}
	var requester *Peer
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if p.Alive() && p.RegionID() != home.ID {
			requester = p
			break
		}
	}
	h.sched.CountExec(h.net.Peers())
	h.net.RequestFrom(requester.ID(), k)
	h.sched.Run(30)
	report := h.net.Report()
	if report.Failures != 1 {
		t.Fatalf("expected failure without replication: %+v", report)
	}
	// The request was issued from outside the event loop (context -1) and
	// died by its timeouts, which run under the requester whoever armed
	// them: nothing here is network-global work.
	counts := h.sched.ExecCounts()
	if counts[0] != 0 || counts[requester.ID()+1] == 0 {
		t.Errorf("%d events ran as global work and %d under the requester, want 0 and some",
			counts[0], counts[requester.ID()+1])
	}
}

func TestMobileEndToEndRun(t *testing.T) {
	o := defaultHarnessOpts()
	o.nodes = 40
	o.mobile = true
	o.generator = true
	o.updateInt = 60
	o.mutate = func(c *Config) {
		c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
		c.Warmup = 100
	}
	h := build(t, o)
	rep := h.net.Run(600)
	if rep.Requests < 100 {
		t.Fatalf("too few requests in 600 s: %d", rep.Requests)
	}
	failRate := float64(rep.Failures) / float64(rep.Requests)
	if failRate > 0.25 {
		t.Errorf("failure rate %.2f too high: %+v", failRate, rep)
	}
	if rep.MeanLatency <= 0 {
		t.Error("zero mean latency in mobile run")
	}
	if rep.EnergyPerRequest <= 0 {
		t.Error("no energy recorded")
	}
	if h.net.Stats().Handoffs == 0 {
		t.Error("no key handoffs despite mobility")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() metrics.Report {
		o := defaultHarnessOpts()
		o.nodes = 30
		o.mobile = true
		o.generator = true
		o.updateInt = 90
		o.seed = 77
		o.mutate = func(c *Config) {
			c.Consistency = consistency.DefaultConfig(consistency.PushAdaptivePull)
		}
		h := build(t, o)
		return h.net.Run(300)
	}
	a := run()
	b := run()
	if a.Requests != b.Requests || a.Completed != b.Completed ||
		a.MeanLatency != b.MeanLatency || a.ControlMessages != b.ControlMessages ||
		a.EnergyTotal != b.EnergyTotal {
		t.Errorf("same seed produced different runs:\n%+v\n%+v", a, b)
	}
}

func TestCrashedPeerIgnoresTraffic(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	p := h.net.Peer(radio.NodeID(0))
	h.net.Crash(p.ID())
	h.net.RequestFrom(p.ID(), h.cat.Keys()[0])
	h.sched.Run(10)
	if h.net.Report().Requests != 0 {
		t.Error("crashed peer issued a request")
	}
}

func TestReviveRestoresPeer(t *testing.T) {
	h := build(t, defaultHarnessOpts())
	p := h.net.Peer(radio.NodeID(0))
	h.net.Crash(p.ID())
	h.net.Revive(p.ID())
	if !p.Alive() {
		t.Fatal("peer not alive after revive")
	}
	if p.Store().Len() != 0 {
		t.Error("revived peer kept stale store")
	}
	k := h.keyHomedIn(t, p.RegionID(), false)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	if h.net.Report().Completed != 1 {
		t.Error("revived peer cannot fetch")
	}
}

// admitRecorder is a Probe that records which peers admitted an item.
type admitRecorder map[radio.NodeID]bool

func (r admitRecorder) OnCacheAdmit(id radio.NodeID, _, _ region.ID, _ workload.Key)               { r[id] = true }
func (admitRecorder) OnTTRSmoothed(radio.NodeID, workload.Key, float64, float64, float64, float64) {}
func (admitRecorder) AfterRehome(*Peer, bool)                                                      {}

// TestCacheBuiltAtFirstAdmission: a peer's dynamic cache is built by its
// first admission, so after a run exactly the peers that admitted an
// item hold one, and Revive drops it again.
func TestCacheBuiltAtFirstAdmission(t *testing.T) {
	o := defaultHarnessOpts()
	o.generator = true
	h := build(t, o)
	admitted := admitRecorder{}
	h.net.SetProbe(admitted)
	h.net.Run(60)
	never := 0
	var cached *Peer
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if built := p.Cache() != nil; built != admitted[p.ID()] {
			t.Errorf("peer %d: cache built %v, admitted an item %v", i, built, admitted[p.ID()])
		}
		switch {
		case !admitted[p.ID()]:
			never++
		case cached == nil:
			cached = p
		}
	}
	if never == 0 || cached == nil {
		t.Fatalf("%d of %d peers never admitted: the run must leave both kinds", never, h.net.Peers())
	}
	h.net.Crash(cached.ID())
	h.net.Revive(cached.ID())
	if cached.Cache() != nil {
		t.Error("a revived peer kept its dynamic cache")
	}
}

func TestEnRouteAnswering(t *testing.T) {
	// With en-route caching on, a peer between requester and home region
	// holding the item answers early. Construct this deterministically:
	// fetch at peer M (who caches it), then request from a peer whose
	// GPSR path to the home region passes M. Rather than engineering the
	// exact path, run many requests and check the class shows up.
	o := defaultHarnessOpts()
	o.nodes = 49
	o.rows, o.cols = 3, 3
	o.generator = true
	h := build(t, o)
	rep := h.net.Run(2000)
	if rep.ByClass["en-route"] == 0 {
		t.Log("no en-route hits observed (acceptable but unusual); classes:", rep.ByClass)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
}

func TestCacheDisabledStillWorks(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) { c.CacheBytes = 0 }
	h := build(t, o)
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	if p.Cache() != nil {
		t.Fatal("cache allocated despite CacheBytes=0")
	}
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(10)
	if h.net.Report().Completed != 1 {
		t.Fatal("request failed without cache")
	}
	// And a second request is again remote (nothing was cached).
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(20)
	if got := h.net.Report().ByClass["local"]; got != 0 {
		t.Errorf("local hits without a cache: %d", got)
	}
}

func TestWarmupSuppressesMetrics(t *testing.T) {
	o := defaultHarnessOpts()
	o.mutate = func(c *Config) { c.Warmup = 100 }
	h := build(t, o)
	k := h.cat.Keys()[0]
	p := h.requesterFor(t, k)
	h.net.RequestFrom(p.ID(), k) // at t=0, inside warmup
	h.sched.Run(10)
	if h.net.Report().Requests != 0 {
		t.Error("warmup request recorded")
	}
	h.sched.Run(150)
	h.net.RequestFrom(p.ID(), k)
	h.sched.Run(160)
	if h.net.Report().Requests != 1 {
		t.Error("post-warmup request not recorded")
	}
}
