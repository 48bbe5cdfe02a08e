package radio

import (
	"math"
	"math/rand"
	"testing"

	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/sim"
	"precinct/internal/stats"
)

// lineTopology places n nodes on a horizontal line with the given spacing.
func lineTopology(t *testing.T, n int, spacing float64) *mobility.Static {
	t.Helper()
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(float64(i)*spacing, 0)
	}
	s, err := mobility.NewStatic(pts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// perSenderLoss builds one loss RNG stream per sender, as radio.New
// requires when LossRate > 0.
func perSenderLoss(n int, seed int64) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	return out
}

func newChannel(t *testing.T, cfg Config, mob mobility.Model, withMeter bool) (*Channel, *sim.Scheduler, *energy.Meter) {
	t.Helper()
	sched := sim.NewScheduler()
	var meter *energy.Meter
	if withMeter {
		var err error
		meter, err = energy.NewMeter(mob.Len(), energy.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
	}
	ch, err := New(cfg, sched, mob, meter, perSenderLoss(mob.Len(), 1))
	if err != nil {
		t.Fatal(err)
	}
	return ch, sched, meter
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Range = 0 },
		func(c *Config) { c.Bandwidth = -1 },
		func(c *Config) { c.MACOverhead = -1 },
		func(c *Config) { c.Propagation = -0.5 },
		func(c *Config) { c.LossRate = 1 },
		func(c *Config) { c.LossRate = -0.1 },
		func(c *Config) { c.HeaderBytes = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	mob := lineTopology(t, 2, 100)
	if _, err := New(DefaultConfig(), nil, mob, nil, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(DefaultConfig(), sim.NewScheduler(), nil, nil, nil); err == nil {
		t.Error("nil mobility accepted")
	}
	lossy := DefaultConfig()
	lossy.LossRate = 0.5
	if _, err := New(lossy, sim.NewScheduler(), mob, nil, nil); err == nil {
		t.Error("lossy channel without RNG accepted")
	}
}

func TestNeighborsUnitDisk(t *testing.T) {
	// Nodes at x = 0, 200, 400, 800 with range 250.
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(400, 0), geo.Pt(800, 0)}
	mob, _ := mobility.NewStatic(pts)
	cfg := DefaultConfig()
	ch, _, _ := newChannel(t, cfg, mob, false)

	nbs := ch.Neighbors(0)
	if len(nbs) != 1 || nbs[0].ID != 1 {
		t.Fatalf("Neighbors(0) = %v, want just node 1", nbs)
	}
	nbs = ch.Neighbors(1)
	if len(nbs) != 2 {
		t.Fatalf("Neighbors(1) = %v, want nodes 0 and 2", nbs)
	}
	if got := ch.Neighbors(3); len(got) != 0 {
		t.Fatalf("isolated node has neighbors: %v", got)
	}
	ch.SetHandler(func(NodeID, Frame) {})
	if !ch.Unicast(0, 1, 100, nil) || ch.Unicast(0, 2, 100, nil) || ch.Unicast(0, 0, 100, nil) {
		t.Error("Unicast's verdicts disagree with Neighbors(0)")
	}
}

func TestNeighborsExcludeDead(t *testing.T) {
	mob := lineTopology(t, 3, 100)
	ch, _, _ := newChannel(t, DefaultConfig(), mob, false)
	ch.SetNodeAlive(1, false)
	for _, nb := range ch.Neighbors(0) {
		if nb.ID == 1 {
			t.Fatal("dead node listed as neighbor")
		}
	}
}

// TestSharedLivenessTable: the channels of a sharded run read one table.
// A death written through every channel's SetNodeAlive is seen by all of
// them, remembered answers included; a table of the wrong size is
// refused.
func TestSharedLivenessTable(t *testing.T) {
	a, _, _ := newChannel(t, DefaultConfig(), lineTopology(t, 3, 100), false)
	b, _, _ := newChannel(t, DefaultConfig(), lineTopology(t, 3, 100), false)
	table := []bool{true, true, true}
	a.SetLiveness(table)
	b.SetLiveness(table)
	if len(a.Neighbors(1)) != 2 || len(b.Neighbors(1)) != 2 {
		t.Fatal("middle node should see both ends")
	}
	for _, ch := range []*Channel{a, b} {
		ch.SetNodeAlive(2, false)
	}
	if table[2] {
		t.Fatal("SetNodeAlive did not write the shared table")
	}
	for name, ch := range map[string]*Channel{"a": a, "b": b} {
		if nb := ch.Neighbors(1); len(nb) != 1 || nb[0].ID != 0 || ch.Alive(2) {
			t.Errorf("channel %s still sees node 2: %v", name, nb)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a liveness table of the wrong length was accepted")
		}
	}()
	a.SetLiveness(make([]bool, 2))
}

func TestBroadcastDelivery(t *testing.T) {
	mob := lineTopology(t, 4, 100) // range 250: node 1 hears 0,2,3? distances 100,100,200 -> all
	ch, sched, _ := newChannel(t, DefaultConfig(), mob, false)
	var got []NodeID
	ch.SetHandler(func(to NodeID, f Frame) {
		if !f.Broadcast || f.From != 1 {
			t.Errorf("frame fields wrong: %+v", f)
		}
		got = append(got, to)
	})
	n := ch.Broadcast(1, 1000, "hello")
	sched.RunAll()
	if n != 3 || len(got) != 3 {
		t.Fatalf("delivered to %d nodes (%v), want 3", n, got)
	}
}

func TestBroadcastFromDeadNode(t *testing.T) {
	mob := lineTopology(t, 2, 100)
	ch, sched, _ := newChannel(t, DefaultConfig(), mob, false)
	ch.SetHandler(func(NodeID, Frame) { t.Fatal("unexpected delivery") })
	ch.SetNodeAlive(0, false)
	if n := ch.Broadcast(0, 100, nil); n != 0 {
		t.Fatalf("dead node broadcast delivered to %d", n)
	}
	sched.RunAll()
}

func TestUnicastDelivery(t *testing.T) {
	mob := lineTopology(t, 3, 200)
	ch, sched, _ := newChannel(t, DefaultConfig(), mob, false)
	var frames []Frame
	ch.SetHandler(func(to NodeID, f Frame) {
		if to != 1 {
			t.Errorf("delivered to %d, want 1", to)
		}
		frames = append(frames, f)
	})
	if !ch.Unicast(0, 1, 500, "x") {
		t.Fatal("in-range unicast returned false")
	}
	sched.RunAll()
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	if frames[0].Payload.(string) != "x" {
		t.Error("payload mangled")
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	mob := lineTopology(t, 2, 500)
	ch, sched, _ := newChannel(t, DefaultConfig(), mob, false)
	ch.SetHandler(func(NodeID, Frame) { t.Fatal("unexpected delivery") })
	if ch.Unicast(0, 1, 100, nil) {
		t.Fatal("out-of-range unicast returned true")
	}
	if ch.Stats().Undeliverable != 1 {
		t.Error("undeliverable counter not bumped")
	}
	sched.RunAll()
}

func TestUnicastToDeadNode(t *testing.T) {
	mob := lineTopology(t, 2, 100)
	ch, sched, _ := newChannel(t, DefaultConfig(), mob, false)
	ch.SetHandler(func(NodeID, Frame) { t.Fatal("unexpected delivery") })
	ch.SetNodeAlive(1, false)
	if ch.Unicast(0, 1, 100, nil) {
		t.Fatal("unicast to dead node returned true")
	}
	sched.RunAll()
}

func TestDeliveryDelayIncludesAirtime(t *testing.T) {
	mob := lineTopology(t, 2, 100)
	cfg := DefaultConfig()
	cfg.MACOverhead = 0.001
	cfg.Bandwidth = 1e6 // 1 Mb/s so airtime is visible
	cfg.HeaderBytes = 0
	ch, sched, _ := newChannel(t, cfg, mob, false)
	var at float64 = -1
	ch.SetHandler(func(to NodeID, f Frame) { at = sched.Now() })
	ch.Unicast(0, 1, 1250, nil) // 10000 bits / 1 Mb/s = 10 ms
	sched.RunAll()
	want := 0.001 + 0.01 + cfg.Propagation
	if math.Abs(at-want) > 1e-9 {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestTransmitSerialization(t *testing.T) {
	// Two back-to-back unicasts from the same node must not overlap on
	// the air: second delivery happens one full airtime after the first.
	mob := lineTopology(t, 2, 100)
	cfg := DefaultConfig()
	cfg.MACOverhead = 0
	cfg.Propagation = 0
	cfg.Bandwidth = 1e6
	cfg.HeaderBytes = 0
	ch, sched, _ := newChannel(t, cfg, mob, false)
	var times []float64
	ch.SetHandler(func(NodeID, Frame) { times = append(times, sched.Now()) })
	ch.Unicast(0, 1, 1250, nil) // 10 ms airtime
	ch.Unicast(0, 1, 1250, nil)
	sched.RunAll()
	if len(times) != 2 {
		t.Fatalf("got %d deliveries", len(times))
	}
	if math.Abs(times[0]-0.01) > 1e-9 || math.Abs(times[1]-0.02) > 1e-9 {
		t.Fatalf("delivery times %v, want [0.01, 0.02]", times)
	}
}

// requireClass checks one traffic class's message count and energy.
func requireClass(t *testing.T, meter *energy.Meter, c energy.Class, n uint64, cost float64) {
	t.Helper()
	if got := meter.Messages(c); got != n {
		t.Errorf("%v: %d messages, want %d", c, got, n)
	}
	if got := meter.ByClass(c); math.Abs(got-cost) > 1e-9 {
		t.Errorf("%v: energy %v, want %v", c, got, cost)
	}
}

func TestBroadcastEnergyAccounting(t *testing.T) {
	mob := lineTopology(t, 3, 100) // node 1 in middle; bcast from 1 reaches 0 and 2
	cfg := DefaultConfig()
	ch, sched, meter := newChannel(t, cfg, mob, true)
	ch.SetHandler(func(NodeID, Frame) {})
	const payload = 1000
	onAir := payload + cfg.HeaderBytes
	ch.Broadcast(1, payload, nil)
	sched.RunAll()

	m := energy.DefaultModel()
	wantSender := m.BroadcastSend.Cost(onAir)
	wantRecv := m.BroadcastRecv.Cost(onAir)
	requireClass(t, meter, energy.BroadcastSend, 1, wantSender)
	requireClass(t, meter, energy.BroadcastRecv, 2, 2*wantRecv)
	for _, c := range []energy.Class{energy.P2PSend, energy.P2PRecv, energy.Discard} {
		requireClass(t, meter, c, 0, 0)
	}
	if got := meter.Total(); math.Abs(got-(wantSender+2*wantRecv)) > 1e-9 {
		t.Errorf("total %v, want %v", got, wantSender+2*wantRecv)
	}
}

func TestUnicastEnergyIncludesOverhearers(t *testing.T) {
	// Place 0,1,2 at 0,100,200 with range 250: all mutually in range.
	mob := lineTopology(t, 3, 100)
	cfg := DefaultConfig()
	ch, sched, meter := newChannel(t, cfg, mob, true)
	ch.SetHandler(func(NodeID, Frame) {})
	const payload = 500
	onAir := payload + cfg.HeaderBytes
	ch.Unicast(0, 1, payload, nil)
	sched.RunAll()

	m := energy.DefaultModel()
	requireClass(t, meter, energy.P2PSend, 1, m.P2PSend.Cost(onAir))
	requireClass(t, meter, energy.P2PRecv, 1, m.P2PRecv.Cost(onAir))
	// Node 2 overhears and discards.
	requireClass(t, meter, energy.Discard, 1, m.Discard.Cost(onAir))
	requireClass(t, meter, energy.BroadcastSend, 0, 0)
	requireClass(t, meter, energy.BroadcastRecv, 0, 0)
}

// TestEnergyCountsMatchFrames runs a lossless mixed sequence of
// broadcasts and unicasts over a static field with one dead node. Every
// frame charges its sender once, so the send classes count the frames;
// every live node in range of a sender pays one reception, so the
// receive classes count the neighborhoods, found here by testing every
// pair. The dead node neither sends, nor is addressed, nor overhears.
func TestEnergyCountsMatchFrames(t *testing.T) {
	const n, dead = 30, NodeID(7)
	rng := rand.New(rand.NewSource(5))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(600*rng.Float64(), 600*rng.Float64())
	}
	mob, err := mobility.NewStatic(pts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ch, sched, meter := newChannel(t, cfg, mob, true)
	ch.SetHandler(func(NodeID, Frame) {})
	ch.SetNodeAlive(dead, false)
	inRange := func(from NodeID) (out []NodeID) {
		for j := range pts {
			if id := NodeID(j); id != from && id != dead && pts[from].Dist2(pts[j]) <= cfg.Range*cfg.Range {
				out = append(out, id)
			}
		}
		return out
	}

	var bcasts, unicasts, bcastRecv, p2pHeard uint64
	for k := 0; k < 400; k++ {
		from := NodeID(rng.Intn(n))
		nbrs := inRange(from)
		if rng.Intn(2) == 0 {
			ch.Broadcast(from, 40+rng.Intn(900), nil)
			if from != dead {
				bcasts++
				bcastRecv += uint64(len(nbrs))
			}
		} else {
			to := dead
			if len(nbrs) > 0 && rng.Intn(4) > 0 {
				to = nbrs[rng.Intn(len(nbrs))]
			}
			if ch.Unicast(from, to, 40+rng.Intn(900), nil) {
				unicasts++
				p2pHeard += uint64(len(nbrs))
			} else if from != dead && to != dead {
				t.Fatalf("unicast %d -> %d refused", from, to)
			}
		}
		sched.Run(float64(k+1) * 0.05)
	}
	sched.RunAll()

	st := ch.Stats()
	if st.BroadcastFrames != bcasts || st.UnicastFrames != unicasts || st.Drops != 0 {
		t.Fatalf("%d broadcast and %d unicast frames, %d dropped; the sequence sent %d and %d",
			st.BroadcastFrames, st.UnicastFrames, st.Drops, bcasts, unicasts)
	}
	if bcasts == 0 || unicasts == 0 || st.Undeliverable == 0 || bcastRecv == 0 {
		t.Fatalf("sequence too thin: %+v", st)
	}
	if got := meter.Messages(energy.BroadcastSend); got != st.BroadcastFrames {
		t.Errorf("broadcast-send %d, broadcast frames %d", got, st.BroadcastFrames)
	}
	if got := meter.Messages(energy.P2PSend); got != st.UnicastFrames {
		t.Errorf("p2p-send %d, unicast frames %d", got, st.UnicastFrames)
	}
	if got := meter.Messages(energy.P2PRecv); got != st.UnicastFrames {
		t.Errorf("p2p-recv %d, unicast frames %d", got, st.UnicastFrames)
	}
	if got := meter.Messages(energy.BroadcastRecv); got != bcastRecv {
		t.Errorf("broadcast-recv %d, summed neighborhoods %d", got, bcastRecv)
	}
	if got := meter.Messages(energy.P2PRecv) + meter.Messages(energy.Discard); got != p2pHeard {
		t.Errorf("p2p-recv + discard %d, summed neighborhoods %d", got, p2pHeard)
	}
}

func TestLossInjection(t *testing.T) {
	mob := lineTopology(t, 2, 100)
	cfg := DefaultConfig()
	cfg.LossRate = 0.5
	sched := sim.NewScheduler()
	ch, err := New(cfg, sched, mob, nil, perSenderLoss(mob.Len(), 7))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	ch.SetHandler(func(NodeID, Frame) { delivered++ })
	const n = 2000
	for i := 0; i < n; i++ {
		ch.Broadcast(0, 10, nil)
	}
	sched.RunAll()
	frac := float64(delivered) / n
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("delivered fraction %v with 50%% loss", frac)
	}
	if ch.Stats().Drops == 0 {
		t.Error("drop counter not bumped")
	}
}

func TestStatsCounters(t *testing.T) {
	mob := lineTopology(t, 3, 100)
	ch, sched, _ := newChannel(t, DefaultConfig(), mob, false)
	ch.SetHandler(func(NodeID, Frame) {})
	ch.Broadcast(0, 100, nil)
	ch.Unicast(0, 1, 100, nil)
	sched.RunAll()
	st := ch.Stats()
	if st.BroadcastFrames != 1 || st.UnicastFrames != 1 {
		t.Errorf("frame counters %+v", st)
	}
	if st.BytesOnAir == 0 {
		t.Error("bytes counter not bumped")
	}
}

func TestConnectedComponent(t *testing.T) {
	// Two clusters: {0,1,2} spaced 100 apart, {3,4} far away.
	pts := []geo.Point{
		geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(200, 0),
		geo.Pt(5000, 0), geo.Pt(5100, 0),
	}
	mob, _ := mobility.NewStatic(pts)
	ch, _, _ := newChannel(t, DefaultConfig(), mob, false)
	comp := ch.ConnectedComponent(0)
	if len(comp) != 3 || !comp[0] || !comp[1] || !comp[2] {
		t.Fatalf("component of 0 = %v", comp)
	}
	comp = ch.ConnectedComponent(3)
	if len(comp) != 2 || !comp[3] || !comp[4] {
		t.Fatalf("component of 3 = %v", comp)
	}
}

func TestHandlerRequired(t *testing.T) {
	mob := lineTopology(t, 2, 100)
	ch, _, _ := newChannel(t, DefaultConfig(), mob, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Broadcast without handler did not panic")
		}
	}()
	ch.Broadcast(0, 10, nil)
}

func TestDeadReceiverSkippedAtDeliveryTime(t *testing.T) {
	// A node that dies between send and delivery must not get the frame.
	mob := lineTopology(t, 2, 100)
	ch, sched, _ := newChannel(t, DefaultConfig(), mob, false)
	got := 0
	ch.SetHandler(func(NodeID, Frame) { got++ })
	ch.Unicast(0, 1, 100, nil)
	ch.SetNodeAlive(1, false)
	sched.RunAll()
	if got != 0 {
		t.Fatal("frame delivered to node that died in flight")
	}
}

func TestBeaconStaleness(t *testing.T) {
	// A moving node's observed position lags its true position by up to
	// one beacon interval.
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	w, err := mobility.NewWaypoint(2, mobility.WaypointConfig{
		Area: area, MinSpeed: 10, MaxSpeed: 10, Pause: 0,
	}, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.BeaconInterval = 10
	ch, err := New(cfg, sched, w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Observe at t=0: snapshot taken.
	first := ch.ObservedPosition(1)
	// Advance 5 s (within the beacon interval): observed must not move.
	sched.At(5, func() {
		if got := ch.ObservedPosition(1); got != first {
			t.Errorf("observed position moved within the beacon interval")
		}
		// True position has moved ~50 m.
		if ch.Position(1).Dist(first) < 10 {
			t.Errorf("true position did not move; test setup broken")
		}
	})
	// After the interval, the observation refreshes.
	sched.At(11, func() {
		if got := ch.ObservedPosition(1); got == first {
			t.Errorf("observed position did not refresh after the interval")
		}
	})
	sched.RunAll()
}

func TestBeaconZeroIsPerfectKnowledge(t *testing.T) {
	mob := lineTopology(t, 2, 100)
	ch, _, _ := newChannel(t, DefaultConfig(), mob, false)
	if ch.ObservedPosition(1) != ch.Position(1) {
		t.Error("without beaconing, observed position must be true position")
	}
}

func TestBeaconIntervalValidation(t *testing.T) {
	c := DefaultConfig()
	c.BeaconInterval = -1
	if err := c.Validate(); err == nil {
		t.Error("negative beacon interval accepted")
	}
}

// crossing is a three-node model in which two nodes swap sides of the
// range boundary of node 0, which stands at the origin: node 1 starts
// 10 m inside range and moves away at 20 m/s, node 2 starts 10 m outside
// and closes in at the same speed. From t = 1 on each is 10 m on the
// other side.
type crossing struct{}

func (crossing) Len() int                                   { return 3 }
func (crossing) MaxSpeed() float64                          { return 20 }
func (c crossing) Position(node int, now float64) geo.Point { return c.Leg(node).At(now) }
func (crossing) Leg(node int) mobility.Leg {
	switch node {
	case 1:
		return mobility.Leg{From: geo.Pt(240, 0), Dir: geo.Pt(1, 0), Speed: 20, Until: math.Inf(1)}
	case 2:
		return mobility.Leg{From: geo.Pt(260, 0), Dir: geo.Pt(-1, 0), Speed: 20, Until: math.Inf(1)}
	}
	return mobility.Still(geo.Pt(0, 0), 0, math.Inf(1))
}

// TestBeaconedFramesReachTrueNeighbors holds frame delivery to true
// positions under beaconing: a node whose beacon is in range but which is
// not receives no broadcast, is charged nothing and takes no unicast,
// while a node truly in range whose beacon is not receives the broadcast
// and pays for the frames it hears. The location table keeps the stale
// view the whole time.
func TestBeaconedFramesReachTrueNeighbors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BeaconInterval = 10
	ch, sched, meter := newChannel(t, cfg, crossing{}, true)
	heard := map[NodeID]int{}
	ch.SetHandler(func(to NodeID, _ Frame) { heard[to]++ })
	if tbl := ch.LocationTable(0); len(tbl) != 1 || tbl[0].ID != 1 {
		t.Fatalf("t=0: location table %v, want node 1 alone", tbl)
	}
	sched.Run(1) // both have crossed; neither has beaconed since t=0
	if tbl := ch.LocationTable(0); len(tbl) != 1 || tbl[0].ID != 1 || tbl[0].Pos != geo.Pt(240, 0) {
		t.Fatalf("t=1: location table %v, want node 1 at its t=0 beacon", tbl)
	}
	if nb := ch.Neighbors(0); len(nb) != 1 || nb[0].ID != 2 {
		t.Fatalf("t=1: neighbors %v, want node 2 alone", nb)
	}

	if got := ch.Broadcast(0, 100, nil); got != 1 {
		t.Fatalf("broadcast delivered to %d nodes, want 1", got)
	}
	if ch.Unicast(0, 1, 100, nil) {
		t.Fatal("unicast reached node 1, whose beacon alone is in range")
	}
	if !ch.Unicast(0, 2, 100, nil) {
		t.Fatal("unicast to node 2, truly in range, failed")
	}
	sched.RunAll()
	if heard[1] != 0 || heard[2] != 2 {
		t.Fatalf("frames heard: node 1 %d, node 2 %d; want 0 and 2", heard[1], heard[2])
	}
	if b, p, d := meter.Messages(energy.BroadcastRecv), meter.Messages(energy.P2PRecv), meter.Messages(energy.Discard); b != 1 || p != 1 || d != 0 {
		t.Fatalf("receive charges: broadcast %d, unicast %d, discard %d; want 1, 1, 0", b, p, d)
	}
}

// TestOverlappingReceptionsDeliver: two long frames that reach one
// receiver over the same interval are both handled — the channel has no
// interference between senders.
func TestOverlappingReceptionsDeliver(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bandwidth = 1e5 // slow link: long airtimes that surely overlap
	ch, sched, _ := newChannel(t, cfg, lineTopology(t, 3, 100), false)
	ch.SetHandler(func(NodeID, Frame) {})
	ch.Unicast(0, 1, 5000, nil)
	ch.Unicast(2, 1, 5000, nil)
	sched.RunAll()
	if st := ch.Stats(); st.Handled != 2 {
		t.Fatalf("%d of 2 overlapping receptions handled", st.Handled)
	}
}

// TestMeanNeighborCountClosedForm is the radio's analytic twin (DESIGN.md
// section 18): N nodes placed uniformly on a square of side L with range
// r <= L have (N-1)·F(r/L) neighbors on average, border effect included,
// where F(x) = πx² − 8x³/3 + x⁴/2 is the distance CDF of two uniform
// points in the unit square. The mean over 40 placements must hit it
// within 4 standard errors, a tolerance that a range 5% off would miss.
func TestMeanNeighborCountClosedForm(t *testing.T) {
	const n, side, r = 400, 2000.0, 250.0
	closedForm := func(r float64) float64 {
		x := r / side
		return (n - 1) * (math.Pi*x*x - 8*x*x*x/3 + x*x*x*x/2)
	}
	cfg := DefaultConfig()
	cfg.Range = r
	var perSeed stats.Stream
	for seed := int64(1); seed <= 40; seed++ {
		mob, err := mobility.NewUniformStatic(n, geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side)), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		ch, _, _ := newChannel(t, cfg, mob, false)
		links := 0
		for i := 0; i < n; i++ {
			links += len(ch.Neighbors(NodeID(i)))
		}
		perSeed.Add(float64(links) / n)
	}
	mean, want, tol := perSeed.Mean(), closedForm(r), 4*perSeed.StdErr()
	t.Logf("mean neighbor count %.3f over 40 placements, closed form %.3f, tolerance %.3f", mean, want, tol)
	if math.Abs(mean-want) > tol {
		t.Errorf("the mean neighbor count misses the closed form by %.3f", mean-want)
	}
	if math.Abs(closedForm(0.95*r)-want) <= tol || math.Abs(closedForm(1.05*r)-want) <= tol {
		t.Error("a range 5% off stays within the tolerance: the test cannot see it")
	}
}
