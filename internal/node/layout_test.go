package node

import (
	"math/rand"
	"testing"

	"precinct/internal/radio"
	"precinct/internal/sim"
)

// The tests below pin the container semantics directly — flood records
// against a per-peer model, swap-delete and the freelist — where a
// scenario run would only exercise them implicitly.

// TestFloodRecordsMatchSeenModel holds the time-held records of a shard
// replica to the rule they replace: each peer remembers each dedup ID it
// marked until the mark is seenRetention old (a per-peer map from ID to
// expiry, a mark counting while its expiry is strictly later than now).
// Fuzzed streams over two replicas (peers 0-7 on one, 8-15 on the other)
// open floods, deliver copies within a replica as header copies and
// across replicas as cloned payloads, move the clock (onto exact
// expiries, to just short of them, and past seenRetention) and release
// copies. Each flood's first message is never released, so records
// recycle while old references are still held. After every operation
// each valid reference a message holds must name its own replica's
// record.
func TestFloodRecordsMatchSeenModel(t *testing.T) {
	const peers = 16
	type held struct {
		m   *message
		net *Network
	}
	type flood struct {
		id   uint64
		msgs []held // msgs[0] is the birth message
	}
	// First a stream short enough to spell out: a record is not recycled
	// a moment before its last mark expires.
	{
		sched := sim.NewScheduler()
		net := &Network{sched: sched, floods: floodIndex{timed: true}}
		a, b := &Peer{id: 0, net: net}, &Peer{id: 1, net: net}
		x := net.newMsg(message{Kind: kindSearchFlood})
		x.FloodID = a.newID()
		a.markSeen(x) // expires at 120
		sched.Run(50)
		b.markSeen(x) // expires at 170
		sched.Run(169.5)
		y := net.newMsg(message{Kind: kindSearchFlood})
		y.FloodID = a.newID()
		a.markSeen(y) // opens a record: x's is the oldest, and still live
		if !b.markSeen(x) {
			t.Fatal("peer 1's mark of the first flood was lost half a second before it expired")
		}
	}
	// What the streams must have reached, summed over seeds.
	var atExpiry, remarks, staleRefs, clones int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := sim.NewScheduler()
		reps := []*Network{{sched: sched}, {sched: sched}}
		for _, r := range reps {
			r.floods.timed = true // as EnableSharding sets them
		}
		ps := make([]*Peer, peers)
		for i := range ps {
			ps[i] = &Peer{id: radio.NodeID(i), net: reps[i*len(reps)/peers]}
		}
		model := make([]map[uint64]float64, peers)
		for i := range model {
			model[i] = map[uint64]float64{}
		}
		var floods []*flood
		// pick favours the last 20 floods, which span about seenRetention.
		pick := func() *flood {
			if rng.Intn(5) == 0 || len(floods) <= 20 {
				return floods[rng.Intn(len(floods))]
			}
			return floods[len(floods)-1-rng.Intn(20)]
		}
		for op := 0; op < 3000; op++ {
			now := sched.Now()
			switch r := rng.Intn(100); {
			case r < 10 || len(floods) == 0: // a birth site: new ID, marked by its origin
				p := ps[rng.Intn(peers)]
				m, id := birth(rng, p)
				if p.markSeen(m) {
					t.Fatalf("seed %d op %d: peer %d had seen the new ID %#x", seed, op, p.id, id)
				}
				model[p.id][id] = now + seenRetention
				floods = append(floods, &flood{id: id, msgs: []held{{m, p.net}}})
			case r < 60: // a delivery
				f := pick()
				h := f.msgs[rng.Intn(len(f.msgs))]
				q := ps[rng.Intn(peers)]
				var cp *message
				if q.net == h.net {
					h.m.refs++ // shared with one more receiver, which takes a copy
					cp = h.net.headerCopy(h.m)
				} else {
					cp = h.net.clonePayload(h.m).(*message)
					clones++
				}
				exp, ok := model[q.id][f.id]
				want := ok && exp > now
				if ok && exp == now {
					atExpiry++
				}
				if ok && !want {
					remarks++
				}
				if cp.rec != nil && cp.rec.gen != cp.recGen {
					staleRefs++
				}
				if got := q.net.floods.heard(cp, f.id, int32(q.id), now); got != want {
					t.Fatalf("seed %d op %d: peer %d heard %#x = %v at %v, the model says %v", seed, op, q.id, f.id, got, now, want)
				}
				if got := q.markSeen(cp); got != want {
					t.Fatalf("seed %d op %d: peer %d markSeen(%#x) = %v at %v, the model says %v", seed, op, q.id, f.id, got, now, want)
				}
				if !want {
					model[q.id][f.id] = now + seenRetention
				}
				f.msgs = append(f.msgs, held{cp, q.net})
			case r < 80: // the clock moves a little
				sched.Run(now + float64(rng.Intn(7)))
			case r < 87: // onto, or to just short of, the expiry of a mark
				if exp, ok := model[rng.Intn(peers)][pick().id]; ok && exp > now {
					sched.Run(exp - float64(rng.Intn(2))/2)
				}
			case r < 88: // past every mark made so far
				sched.Run(now + seenRetention + float64(rng.Intn(3)))
			default: // a holder lets go of a copy
				if f := pick(); len(f.msgs) > 1 {
					i := 1 + rng.Intn(len(f.msgs)-1)
					f.msgs[i].net.releaseMsg(f.msgs[i].m)
					f.msgs = append(f.msgs[:i], f.msgs[i+1:]...)
				}
			}
			for _, f := range floods {
				for _, h := range f.msgs {
					if h.m.rec != nil && h.m.rec.gen == h.m.recGen && h.net.floods.byID[f.id] != h.m.rec {
						t.Fatalf("seed %d op %d: a message of flood %#x references a record its replica does not index under that ID", seed, op, f.id)
					}
				}
			}
		}
	}
	if atExpiry == 0 || remarks == 0 || staleRefs == 0 || clones == 0 {
		t.Fatalf("the streams missed a case: %d checks at an exact expiry, %d re-marks, %d stale references, %d cloned payloads",
			atExpiry, remarks, staleRefs, clones)
	}
	t.Logf("%d checks at an exact expiry, %d re-marks, %d stale references, %d cloned payloads", atExpiry, remarks, staleRefs, clones)
}

// birth starts a flood at p as a birth site does: a message of a random
// flood kind carrying a fresh dedup ID, not yet marked.
func birth(rng *rand.Rand, p *Peer) (*message, uint64) {
	kinds := []msgKind{kindSearchFlood, kindRegionalSearch, kindHomeFlood, kindUpdateFlood, kindInvalidate, kindPollFlood}
	m := p.net.newMsg(message{Kind: kinds[rng.Intn(len(kinds))]})
	id := p.newID()
	if m.Kind == kindRegionalSearch {
		m.ID = id
	} else {
		m.FloodID = id
	}
	return m, id
}

// TestCountedFloodRecordsMatchSeenModel runs the same kind of stream on
// one sequential replica, whose records are counted: any copy may be
// released, the birth message too, and a flood whose last copy is gone
// is never delivered again, as no message carries its ID any more. After
// every operation a record must be on the freelist exactly when its
// flood's last copy has been released, with as many references as the
// flood has copies while it has any, and every peer's seen must match
// the per-peer map model for every flood still in flight.
func TestCountedFloodRecordsMatchSeenModel(t *testing.T) {
	const peers = 12
	type flood struct {
		id   uint64
		rec  *floodRec
		msgs []*message // every copy still held
	}
	var recycled, remarks, reused int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := sim.NewScheduler()
		net := &Network{sched: sched}
		ps := make([]*Peer, peers)
		for i := range ps {
			ps[i] = &Peer{id: radio.NodeID(i), net: net}
		}
		model := make([]map[uint64]float64, peers)
		for i := range model {
			model[i] = map[uint64]float64{}
		}
		var live []*flood
		for op := 0; op < 3000; op++ {
			now := sched.Now()
			switch r := rng.Intn(100); {
			case r < 12 || len(live) == 0: // a birth site
				p := ps[rng.Intn(peers)]
				if len(net.floods.free) > 0 {
					reused++
				}
				m, id := birth(rng, p)
				if p.markSeen(m) {
					t.Fatalf("seed %d op %d: peer %d had seen the new ID %#x", seed, op, p.id, id)
				}
				model[p.id][id] = now + seenRetention
				live = append(live, &flood{id: id, rec: m.rec, msgs: []*message{m}})
			case r < 55: // a delivery
				f := live[rng.Intn(len(live))]
				h := f.msgs[rng.Intn(len(f.msgs))]
				q := ps[rng.Intn(peers)]
				h.refs++
				cp := net.headerCopy(h)
				exp, ok := model[q.id][f.id]
				want := ok && exp > now
				if ok && !want {
					remarks++
				}
				if got := net.floods.heard(cp, f.id, int32(q.id), now); got != want {
					t.Fatalf("seed %d op %d: peer %d heard %#x = %v at %v, the model says %v", seed, op, q.id, f.id, got, now, want)
				}
				if got := q.markSeen(cp); got != want {
					t.Fatalf("seed %d op %d: peer %d markSeen(%#x) = %v at %v, the model says %v", seed, op, q.id, f.id, got, now, want)
				}
				if !want {
					model[q.id][f.id] = now + seenRetention
				}
				f.msgs = append(f.msgs, cp)
			case r < 75: // the clock moves, now and then past every mark
				step := float64(rng.Intn(7))
				if rng.Intn(20) == 0 {
					step += seenRetention
				}
				sched.Run(now + step)
			default: // a holder lets go of a copy, perhaps the last
				k := rng.Intn(len(live))
				f := live[k]
				i := rng.Intn(len(f.msgs))
				net.releaseMsg(f.msgs[i])
				f.msgs = append(f.msgs[:i], f.msgs[i+1:]...)
				if len(f.msgs) == 0 {
					live = append(live[:k], live[k+1:]...)
					recycled++
				}
			}
			now = sched.Now()
			free := map[*floodRec]bool{}
			for _, r := range net.floods.free {
				free[r] = true
			}
			if net.floods.inUse() != len(live) {
				t.Fatalf("seed %d op %d: %d records in use, %d floods have a copy held", seed, op, net.floods.inUse(), len(live))
			}
			for _, f := range live {
				if free[f.rec] {
					t.Fatalf("seed %d op %d: flood %#x's record is on the freelist with %d copies held", seed, op, f.id, len(f.msgs))
				}
				if int(f.rec.refs) != len(f.msgs) {
					t.Fatalf("seed %d op %d: flood %#x's record counts %d references, %d copies are held", seed, op, f.id, f.rec.refs, len(f.msgs))
				}
				for q := range ps {
					exp, ok := model[q][f.id]
					if got, want := f.rec.seen(int32(q), now), ok && exp > now; got != want {
						t.Fatalf("seed %d op %d: peer %d seen(%#x) = %v at %v, the model says %v", seed, op, q, f.id, got, now, want)
					}
				}
			}
		}
	}
	if recycled == 0 || remarks == 0 || reused == 0 {
		t.Fatalf("the streams missed a case: %d floods released, %d re-marks, %d births on a recycled record", recycled, remarks, reused)
	}
	t.Logf("%d floods released, %d re-marks, %d births on a recycled record", recycled, remarks, reused)
}

// TestFloodRecordLifecyclePanics: in a counted index a stale reference
// and a reference released twice are lifecycle bugs, and panic as a
// message released twice does, where a timed index would answer from
// its IDs.
func TestFloodRecordLifecyclePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	f := &floodIndex{}
	m := &message{}
	r := f.open(m, 1, 0)
	stale := *m
	f.release(r, m.recGen)
	mustPanic("finding a recycled record", func() { f.find(&stale, 1) })
	mustPanic("releasing a recycled record", func() { f.release(r, stale.recGen) })
	r2 := f.open(&message{}, 2, 0)
	f.release(r2, r2.gen)
	mustPanic("releasing a record below zero", func() { f.release(r2, r2.gen) })
}

// TestFloodRecordGroups walks the run-length encoding of a record's
// expiries through its edge cases, which the fuzzed streams above reach
// only by chance: several peers marking at one instant, a record whose
// oldest marks have expired and whose newest have not (with a peer's
// newest mark on either side of that line), a re-mark after expiry, and
// recycling through the freelist, which must leave no group or expiry
// behind.
func TestFloodRecordGroups(t *testing.T) {
	r := &floodRec{}
	mark := func(now float64, nodes ...int32) {
		t.Helper()
		for _, n := range nodes {
			if r.mark(n, now) {
				t.Fatalf("peer %d held a live mark at %v", n, now)
			}
		}
	}
	mark(0, 1, 2, 3) // expire at 120
	mark(10, 4, 5)   // at 130
	mark(20, 6)      // at 140
	want := []markGroup{{120, 3}, {130, 5}, {140, 6}}
	if len(r.groups) != len(want) || r.latest != 140 {
		t.Fatalf("groups %v, latest %v; want %v, 140", r.groups, r.latest, want)
	}
	for i, g := range want {
		if r.groups[i] != g {
			t.Fatalf("group %d is %v, want %v", i, r.groups[i], g)
		}
	}
	for _, c := range []struct {
		node int32
		now  float64
		want bool
	}{
		{2, 119.5, true}, // before the first group's expiry: every mark counts
		{2, 120, false},  // on the first group's expiry
		{4, 120, true},   // first <= now < latest: a newer group still counts
		{5, 129.5, true},
		{5, 130, false},
		{6, 139.5, true},
		{6, 140, false}, // on the latest expiry: nothing counts
		{7, 100, false}, // never marked
	} {
		if got := r.seen(c.node, c.now); got != c.want {
			t.Errorf("seen(%d, %v) = %v, want %v", c.node, c.now, got, c.want)
		}
	}
	// Peer 1 marks again after its mark expired; peer 4's mark still
	// counts and is not repeated.
	mark(125, 1) // at 245
	if !r.mark(4, 125) {
		t.Fatal("peer 4's live mark was lost at 125")
	}
	if len(r.nodes) != 7 || len(r.groups) != 4 || r.groups[0].exp != 120 || r.latest != 245 {
		t.Fatalf("after the re-mark: %d marks, groups %v, latest %v", len(r.nodes), r.groups, r.latest)
	}
	for _, c := range []struct {
		node int32
		want bool
	}{{1, true}, {2, false}, {4, false}, {6, true}} {
		if got := r.seen(c.node, 135); got != c.want {
			t.Errorf("after the re-mark, seen(%d, 135) = %v, want %v", c.node, got, c.want)
		}
	}

	// Releasing the last reference puts the record on the freelist:
	// slices kept, latest zeroed, generation bumped. The next flood to
	// open takes it.
	f := &floodIndex{}
	m := &message{}
	r = f.open(m, 1, 0)
	mark(0, 1, 2)
	mark(30, 3)
	nodes, groups, gen := cap(r.nodes), cap(r.groups), r.gen
	f.release(r, m.recGen)
	if len(f.free) != 1 || f.free[0] != r {
		t.Fatal("a record whose last reference was released is not on the freelist")
	}
	if r.latest != 0 || len(r.nodes) != 0 || len(r.groups) != 0 || r.gen != gen+1 {
		t.Fatalf("the recycled record kept latest %v, %d marks, groups %v, generation %d (was %d)", r.latest, len(r.nodes), r.groups, r.gen, gen)
	}
	if cap(r.nodes) != nodes || cap(r.groups) != groups {
		t.Fatal("recycling dropped the record's slices")
	}
	if got := f.open(&message{}, 2, 200); got != r || len(f.free) != 0 || f.built != 1 {
		t.Fatal("a flood opened beside a free record did not take it")
	}
	mark(200, 2)
	if r.seen(1, 200) || !r.seen(2, 200) || len(r.groups) != 1 || r.groups[0] != (markGroup{320, 1}) {
		t.Fatalf("the recycled record answers as its predecessor: groups %v", r.groups)
	}
}

// TestFloodRecordBytes pins what a wave's marks retain. A record of 27
// marks made at 4 instants (records on the bench workloads average 25-27
// marks at 3.4-3.7 instants) holds its peers at 4 B each and one 16 B
// group per instant: 192 B with append's doubling, where a float64
// expiry per mark would add 256 B to the peers' 128 B.
func TestFloodRecordBytes(t *testing.T) {
	r := &floodRec{}
	for i := int32(0); i < 27; i++ {
		r.mark(i, float64(i*4/27))
	}
	if len(r.groups) != 4 {
		t.Fatalf("27 marks at 4 instants made %d groups", len(r.groups))
	}
	const limit = 192
	if got := cap(r.nodes)*4 + cap(r.groups)*16; got > limit {
		t.Errorf("27 marks at 4 instants retain %d B, limit %d B", got, limit)
	}
}

// TestPendingSliceMatchesMapModel does the same for a peer's outstanding
// requests: append, pendingGet and the swap-deleting pendingDelete
// against a map from request ID to box.
func TestPendingSliceMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &Peer{}
		model := map[uint64]*pendingReq{}
		next := uint64(0)
		for op := 0; op < 2000; op++ {
			id := uint64(1 + rng.Intn(int(next)+2)) // mostly live or dead IDs, sometimes one never issued
			switch r := rng.Intn(10); {
			case r < 4:
				next++
				req := &pendingReq{id: next}
				p.pending = append(p.pending, req)
				model[next] = req
			case r < 7:
				p.pendingDelete(id)
				delete(model, id)
			default:
				req, ok := p.pendingGet(id)
				if want, wantOK := model[id]; ok != wantOK || req != want {
					t.Fatalf("seed %d op %d: pendingGet(%d) = %p, %v; the map holds %p, %v", seed, op, id, req, ok, want, wantOK)
				}
			}
			if len(p.pending) != len(model) {
				t.Fatalf("seed %d op %d: %d requests pending, the map holds %d", seed, op, len(p.pending), len(model))
			}
			for _, req := range p.pending {
				if model[req.id] != req {
					t.Fatalf("seed %d op %d: the slice holds request %d, the map does not", seed, op, req.id)
				}
			}
		}
	}
}

func TestRequestFreelist(t *testing.T) {
	n := &Network{}
	a := n.acquireReq()
	a.id = 42
	n.releaseReq(a)
	if len(n.reqFree) != 1 {
		t.Fatalf("freelist holds %d boxes after release, want 1", len(n.reqFree))
	}
	b := n.acquireReq()
	if b != a {
		t.Fatalf("acquire did not recycle the released box")
	}
	if b.id != 0 {
		t.Fatalf("recycled box was not zeroed: id = %d", b.id)
	}
	if len(n.reqFree) != 0 {
		t.Fatalf("freelist holds %d boxes after acquire, want 0", len(n.reqFree))
	}
	// A second acquire with an empty freelist allocates fresh.
	c := n.acquireReq()
	if c == b {
		t.Fatalf("empty-freelist acquire returned a live box")
	}
}
