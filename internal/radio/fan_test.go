package radio

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/sim"
)

// refScheduleDelivery and refBroadcast are Broadcast as it was before the
// same-shard receivers of a broadcast became one fan: one delivery box
// and one scheduled event per receiver. They live in test code only, as
// the reference the fan path is replayed against.
func refScheduleDelivery(ch *Channel, delay float64, to NodeID, f Frame) bool {
	if ch.shardOf != nil && ch.shardOf[to] != ch.selfShard {
		if f.Broadcast && ch.clonePayload != nil {
			f.Payload = ch.clonePayload(f.Payload)
		}
		creator, cseq := ch.sched.ReserveKey()
		ch.outbox = append(ch.outbox, RemoteDelivery{
			At: ch.sched.Now() + delay, To: to, F: f,
			Creator: creator, Cseq: cseq,
		})
		return false
	}
	ch.inFlight++
	d := ch.takeDelivery()
	d.to, d.f = to, f
	ch.sched.AfterCtxAs(delay, fireDelivery, d, int(to))
	return true
}

func refBroadcast(ch *Channel, from NodeID, size int, payload any) int {
	if !ch.live[from] {
		return 0
	}
	onAir := size + ch.cfg.HeaderBytes
	ch.stats.BroadcastFrames++
	ch.stats.BytesOnAir += uint64(onAir)
	if ch.meter != nil {
		ch.meter.Charge(int(from), energy.BroadcastSend, onAir)
	}
	delay := ch.txDelay(from, size) + ch.cfg.Propagation
	f := Frame{From: from, Broadcast: true, Size: onAir, Payload: payload}
	delivered := 0
	for _, nb := range ch.Neighbors(from) {
		if ch.meter != nil {
			ch.meter.Charge(int(nb.ID), energy.BroadcastRecv, onAir)
		}
		if ch.lost(from) {
			ch.stats.Drops++
			continue
		}
		ch.stats.Deliveries++
		if refScheduleDelivery(ch, delay, nb.ID, f) {
			delivered++
		}
	}
	return delivered
}

// fanPayload is what the test's frames carry: refs counts the receptions
// that still have to settle it, the way the node layer's pooled messages
// are reference-counted.
type fanPayload struct {
	id    int
	hop   int
	refs  int
	clone bool
}

// fanRecord is one observable step of a world: a reception resolved (to
// the handler or the drop handler), a reception parked for another
// shard, or the channel's counters after an event.
type fanRecord struct {
	Kind    string
	Key     sim.EventKey // of the event that was firing
	ExecAs  int
	To      NodeID
	Frame   Frame // Payload replaced by its id below
	Payload fanPayload
	Parked  RemoteDelivery
	Stats   Stats
	Flight  uint64
}

type fanWorld struct {
	t      *testing.T
	ch     *Channel
	sched  *sim.Scheduler
	meter  *energy.Meter
	loss   []*rand.Rand
	bcast  func(from NodeID, size int, payload any) int
	key    sim.EventKey
	nextID int
	all    []*fanPayload
	log    []fanRecord
}

type fanVariant struct {
	sharded bool
	loss    float64
}

func (v fanVariant) String() string {
	return fmt.Sprintf("sharded=%v/loss=%v", v.sharded, v.loss)
}

const fanNodes = 36

func newFanWorld(t *testing.T, v fanVariant, reference bool) *fanWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	pts := make([]geo.Point, fanNodes)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*700, rng.Float64()*700)
	}
	mob, err := mobility.NewStatic(pts)
	if err != nil {
		t.Fatal(err)
	}
	w := &fanWorld{t: t, sched: sim.NewScheduler(), loss: perSenderLoss(fanNodes, 9)}
	if w.meter, err = energy.NewMeter(fanNodes, energy.DefaultModel()); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LossRate = v.loss
	if v.sharded {
		w.sched.SplitGlobal()
	}
	if w.ch, err = New(cfg, w.sched, mob, w.meter, w.loss); err != nil {
		t.Fatal(err)
	}
	if v.sharded {
		// Every third node lives on the other shard, so a broadcast's keys
		// alternate between fan members and parked deliveries.
		shardOf := make([]int32, fanNodes)
		for i := range shardOf {
			if i%3 == 1 {
				shardOf[i] = 1
			}
		}
		w.ch.EnableSharding(shardOf, 0, func(x any) any {
			c := *x.(*fanPayload)
			c.clone, c.refs = true, 1
			w.all = append(w.all, &c)
			return &c
		})
	}
	w.bcast = w.ch.Broadcast
	if reference {
		w.bcast = func(from NodeID, size int, payload any) int { return refBroadcast(w.ch, from, size, payload) }
	}
	w.ch.SetHandler(func(to NodeID, f Frame) {
		p := w.settle("handled", to, f)
		// Floods two hops deep from a third of the receivers, and a unicast
		// back to the sender from some others, all from inside a reception's
		// handler: the pooled reception has to survive a handler that
		// transmits.
		switch {
		case p.hop < 2 && int(to)%3 == 0:
			w.broadcast(to, p.hop+1)
		case p.hop < 3 && int(to)%5 == 1:
			w.unicast(to, f.From, p.hop+1)
		}
	})
	w.ch.SetDropHandler(func(to NodeID, f Frame) { w.settle("dropped", to, f) })
	return w
}

func (w *fanWorld) settle(kind string, to NodeID, f Frame) *fanPayload {
	p := f.Payload.(*fanPayload)
	if p.refs--; p.refs < 0 {
		w.t.Fatalf("payload %d settled more often than it was delivered", p.id)
	}
	f.Payload = nil
	w.log = append(w.log, fanRecord{Kind: kind, Key: w.key, ExecAs: w.sched.Cur(), To: to, Frame: f, Payload: *p})
	return p
}

func (w *fanWorld) newPayload(hop int) *fanPayload {
	p := &fanPayload{id: w.nextID, hop: hop}
	w.nextID++
	w.all = append(w.all, p)
	return p
}

func (w *fanWorld) broadcast(from NodeID, hop int) {
	p := w.newPayload(hop)
	p.refs = w.bcast(from, 60+17*(p.id%5), p)
	w.flush()
}

func (w *fanWorld) unicast(from, to NodeID, hop int) {
	p := w.newPayload(hop)
	p.refs = 1 // the channel owns it from here, unless it refuses the frame
	if !w.ch.Unicast(from, to, 40, p) {
		p.refs = 0
	}
	w.flush()
}

// flush records what the last transmission parked for the other shard
// and injects it into this same channel, so that receptions under keys
// drawn between two fan members fire between them.
func (w *fanWorld) flush() {
	for _, rd := range w.ch.Outbox() {
		rec := fanRecord{Kind: "parked", Key: w.key, Parked: rd, Payload: *rd.F.Payload.(*fanPayload)}
		rec.Parked.F.Payload = nil
		w.log = append(w.log, rec)
		w.ch.Inject(rd)
	}
	w.ch.ResetOutbox()
}

func (w *fanWorld) run() {
	for _, from := range []NodeID{0, 7, 20} {
		w.broadcast(from, 0)
	}
	for step := 0; ; step++ {
		key, ok := w.sched.PeekKey()
		if !ok {
			break
		}
		// Receivers die (and one comes back) while receptions are in flight.
		switch step {
		case 4:
			w.ch.SetNodeAlive(3, false)
			w.ch.SetNodeAlive(12, false)
		case 40:
			w.ch.SetNodeAlive(27, false)
		case 90:
			w.ch.SetNodeAlive(3, true)
		}
		w.key = key
		w.sched.Step(math.Inf(1))
		w.log = append(w.log, fanRecord{Kind: "after", Key: key, Stats: w.ch.Stats(), Flight: w.ch.InFlight()})
		if err := w.sched.CheckConsistency(); err != nil {
			w.t.Fatal(err)
		}
	}
	for _, p := range w.all {
		if p.refs != 0 {
			w.t.Errorf("payload %d (clone %v) ends with %d unsettled receptions", p.id, p.clone, p.refs)
		}
	}
}

// TestBroadcastFanMatchesPerReceiverEvents runs the same traffic through
// Broadcast and through the retained per-receiver reference and requires
// every reception to resolve under the same (time, creator, cseq) key and
// execution context, to the same handler with the same frame; the same
// deliveries parked for the other shard under the same reserved keys; the
// same counters and in-flight count after every event; the same loss
// draws and energy; and every payload settled exactly once — with dead
// receivers, loss and mixed local/remote neighborhoods.
func TestBroadcastFanMatchesPerReceiverEvents(t *testing.T) {
	for _, v := range []fanVariant{
		{},
		{sharded: true},
		{loss: 0.3},
		{sharded: true, loss: 0.2},
	} {
		t.Run(v.String(), func(t *testing.T) {
			sub, ref := newFanWorld(t, v, false), newFanWorld(t, v, true)
			sub.run()
			ref.run()
			if len(sub.log) != len(ref.log) {
				t.Errorf("%d records, reference %d", len(sub.log), len(ref.log))
			}
			for i := 0; i < min(len(sub.log), len(ref.log)); i++ {
				if !reflect.DeepEqual(sub.log[i], ref.log[i]) {
					t.Fatalf("record %d:\n got %+v\nwant %+v", i, sub.log[i], ref.log[i])
				}
			}
			st := sub.ch.Stats()
			if st.Handled == 0 || st.UnicastFrames == 0 || st.DeadDrops == 0 || (v.loss > 0 && st.Drops == 0) {
				t.Errorf("the traffic does not exercise every outcome: %+v", st)
			}
			if sub.sched.Executed() != ref.sched.Executed() {
				t.Errorf("%d events fired, reference %d", sub.sched.Executed(), ref.sched.Executed())
			}
			if sub.sched.FanFired() == 0 || sub.sched.HeapPushes() >= ref.sched.HeapPushes() {
				t.Errorf("fans fired %d members over %d heap pushes (reference: %d pushes)",
					sub.sched.FanFired(), sub.sched.HeapPushes(), ref.sched.HeapPushes())
			}
			// Equal draws so far leave every sender's loss stream at the same
			// point: a lost receiver costs one draw and no key.
			for i := range sub.loss {
				if a, b := sub.loss[i].Float64(), ref.loss[i].Float64(); a != b {
					t.Errorf("sender %d's loss stream is at a different point than the reference's", i)
				}
			}
			if !reflect.DeepEqual(sub.meter, ref.meter) {
				t.Errorf("energy differs from the reference")
			}
		})
	}
}

// TestBroadcastAllocFree is the alloc floor for a whole broadcast: the
// reception and its member list come from the pool, the fan takes one
// recycled scheduler slot, and firing every member allocates nothing.
func TestBroadcastAllocFree(t *testing.T) {
	ch, sched, _ := newChannel(t, DefaultConfig(), lineTopology(t, 12, 20), false)
	handled := 0
	ch.SetHandler(func(NodeID, Frame) { handled++ })
	cycle := func() {
		if n := ch.Broadcast(5, 100, nil); n != 11 {
			t.Fatalf("broadcast reached %d receivers, want 11", n)
		}
		sched.RunAll()
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("broadcast/deliver cycle allocates %.2f objects/op, want 0", avg)
	}
	if handled != 11*202 || len(ch.freeReceptions) != 1 {
		t.Errorf("handled %d receptions (want %d) with %d receptions pooled (want 1)", handled, 11*202, len(ch.freeReceptions))
	}
}
