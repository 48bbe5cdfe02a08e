package node

import (
	"math/rand"
	"testing"
	"unsafe"

	"precinct/internal/radio"
	"precinct/internal/sim"
)

// The tests below pin the container semantics directly — flood records
// against a model of the rule they implement, swap-delete and the
// freelist — where a scenario run would only exercise them implicitly.

// waveModel is the rule a flood record implements, spelled out over a
// set: a wave's marks count while latest, seenRetention after its newest
// mark, is strictly later than now, and the first mark at or after
// latest forgets the marks before it. forgot collects the peers a reset
// forgot, so a stream can tell that it reached one.
type waveModel struct {
	latest         float64
	marked, forgot map[int32]bool
}

func newWaveModel() *waveModel {
	return &waveModel{marked: map[int32]bool{}, forgot: map[int32]bool{}}
}

func (w *waveModel) seen(node int32, now float64) bool { return w.latest > now && w.marked[node] }

func (w *waveModel) mark(node int32, now float64) {
	if w.latest <= now {
		for n := range w.marked {
			w.forgot[n] = true
		}
		clear(w.marked)
	}
	w.marked[node] = true
	w.latest = now + seenRetention
}

// markModel is the rule the records replaced, kept as a reference: each
// peer remembers each dedup ID it marked until that mark is
// seenRetention old (a map from ID to expiry per peer, a mark counting
// while its expiry is strictly later than now). The two rules agree on
// every check made within seenRetention of a flood's first mark: no
// mark has expired under either, and no reset has happened.
type markModel []map[uint64]float64

func newMarkModel(peers int) markModel {
	m := make(markModel, peers)
	for i := range m {
		m[i] = map[uint64]float64{}
	}
	return m
}

func (m markModel) seen(node int32, id uint64, now float64) bool {
	exp, ok := m[node][id]
	return ok && exp > now
}

func (m markModel) mark(node int32, id uint64, now float64) {
	m[node][id] = now + seenRetention
}

// TestFloodRecordsMatchSeenModel holds the time-held records of shard
// replicas to the record-level rule (waveModel, one per flood per
// replica), and to the per-mark reference wherever a check falls within
// seenRetention of its flood's first mark. Fuzzed streams over two
// replicas (peers 0-7 on one, 8-15 on the other) open floods, deliver
// copies within a replica as header copies and across replicas as cloned
// payloads, move the clock (onto a record's latest, to just short of it,
// and past seenRetention) and release copies. Each flood's first message
// is never released, so records recycle while old references are still
// held. After every operation each valid reference a message holds must
// name its own replica's record.
func TestFloodRecordsMatchSeenModel(t *testing.T) {
	const peers = 16
	type held struct {
		m   *message
		net *Network
	}
	type flood struct {
		id    uint64
		first float64
		waves []*waveModel // by replica
		msgs  []held       // msgs[0] is the birth message
	}
	// First a stream short enough to spell out: a record is not recycled
	// a moment before its latest.
	{
		sched := sim.NewScheduler()
		net := &Network{sched: sched, floods: floodIndex{timed: true}}
		a, b := &Peer{id: 0, net: net}, &Peer{id: 1, net: net}
		x := net.newMsg(message{Kind: kindSearchFlood})
		x.FloodID = a.newID()
		a.markSeen(x) // latest 120
		sched.Run(50)
		b.markSeen(x) // latest 170
		sched.Run(169.5)
		y := net.newMsg(message{Kind: kindSearchFlood})
		y.FloodID = a.newID()
		a.markSeen(y) // opens a record: x's is the oldest, and still live
		if !b.markSeen(x) {
			t.Fatal("peer 1's mark of the first flood was lost half a second before its record's latest")
		}
	}
	// What the streams must have reached, summed over seeds.
	var atLatest, agreed, differed, forgotten, staleRefs, clones int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := sim.NewScheduler()
		reps := []*Network{{sched: sched}, {sched: sched}}
		for _, r := range reps {
			r.floods.timed = true // as EnableSharding sets them
		}
		ps := make([]*Peer, peers)
		rep := make([]int, peers)
		for i := range ps {
			rep[i] = i * len(reps) / peers
			ps[i] = &Peer{id: radio.NodeID(i), net: reps[rep[i]]}
		}
		ref := newMarkModel(peers)
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
				f := &flood{id: id, first: now, msgs: []held{{m, p.net}}}
				for range reps {
					f.waves = append(f.waves, newWaveModel())
				}
				f.waves[rep[p.id]].mark(int32(p.id), now)
				ref.mark(int32(p.id), id, now)
				floods = append(floods, f)
			case r < 60: // a delivery
				f := pick()
				h := f.msgs[rng.Intn(len(f.msgs))]
				q := ps[rng.Intn(peers)]
				node, w := int32(q.id), f.waves[rep[q.id]]
				var cp *message
				if q.net == h.net {
					h.m.refs++ // shared with one more receiver, which takes a copy
					cp = h.net.headerCopy(h.m)
				} else {
					cp = h.net.clonePayload(h.m).(*message)
					clones++
				}
				want, old := w.seen(node, now), ref.seen(node, f.id, now)
				switch {
				case now < f.first+seenRetention:
					if want != old {
						t.Fatalf("seed %d op %d: peer %d, %v after flood %#x's first mark: the record rule says %v, the per-mark rule %v", seed, op, q.id, now-f.first, f.id, want, old)
					}
					agreed++
				case want != old:
					differed++
				}
				if len(w.marked) > 0 && w.latest == now {
					atLatest++
				}
				if !want && w.latest > now && w.forgot[node] {
					forgotten++
				}
				if cp.rec != nil && cp.rec.gen != cp.recGen {
					staleRefs++
				}
				if got := q.net.floods.heard(cp, f.id, node, now); got != want {
					t.Fatalf("seed %d op %d: peer %d heard %#x = %v at %v, the model says %v", seed, op, q.id, f.id, got, now, want)
				}
				if got := q.markSeen(cp); got != want {
					t.Fatalf("seed %d op %d: peer %d markSeen(%#x) = %v at %v, the model says %v", seed, op, q.id, f.id, got, now, want)
				}
				if !want {
					w.mark(node, now)
				}
				if !old {
					ref.mark(node, f.id, now)
				}
				f.msgs = append(f.msgs, held{cp, q.net})
			case r < 80: // the clock moves a little
				sched.Run(now + float64(rng.Intn(7)))
			case r < 87: // onto, or to just short of, a record's latest
				if w := pick().waves[rng.Intn(len(reps))]; w.latest > now {
					sched.Run(w.latest - float64(rng.Intn(2))/2)
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
	if atLatest == 0 || agreed == 0 || differed == 0 || forgotten == 0 || staleRefs == 0 || clones == 0 {
		t.Fatalf("the streams missed a case: %d checks at a record's latest, %d within seenRetention of a first mark, %d where the rules differ, %d of a forgotten mark, %d stale references, %d cloned payloads",
			atLatest, agreed, differed, forgotten, staleRefs, clones)
	}
	t.Logf("%d checks at a record's latest, %d within seenRetention of a first mark, %d where the rules differ, %d of a forgotten mark, %d stale references, %d cloned payloads",
		atLatest, agreed, differed, forgotten, staleRefs, clones)
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
// the record-level model, and the per-mark reference within
// seenRetention of the flood's first mark, for every flood still in
// flight.
func TestCountedFloodRecordsMatchSeenModel(t *testing.T) {
	const peers = 12
	// First the case that tells the rule from membership and latest
	// alone: a mark made once latest has passed forgets the marks before
	// it, so peer 1 is fresh although the record's latest is ahead.
	{
		r := &floodRec{}
		r.mark(1, 0)
		r.mark(2, 0) // latest 120
		if r.mark(2, 130) {
			t.Fatal("peer 2's mark counted at 130, after the record's latest of 120")
		}
		if r.seen(1, 131) {
			t.Fatal("peer 1's mark at 0 still counts at 131, after peer 2 marked afresh at 130")
		}
	}
	type flood struct {
		id    uint64
		first float64
		wave  *waveModel
		rec   *floodRec
		msgs  []*message // every copy still held
	}
	var recycled, agreed, differed, forgotten, reused int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := sim.NewScheduler()
		net := &Network{sched: sched}
		ps := make([]*Peer, peers)
		for i := range ps {
			ps[i] = &Peer{id: radio.NodeID(i), net: net}
		}
		ref := newMarkModel(peers)
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
				f := &flood{id: id, first: now, wave: newWaveModel(), rec: m.rec, msgs: []*message{m}}
				f.wave.mark(int32(p.id), now)
				ref.mark(int32(p.id), id, now)
				live = append(live, f)
			case r < 55: // a delivery
				f := live[rng.Intn(len(live))]
				h := f.msgs[rng.Intn(len(f.msgs))]
				node := int32(rng.Intn(peers))
				h.refs++
				cp := net.headerCopy(h)
				want, old := f.wave.seen(node, now), ref.seen(node, f.id, now)
				if !want && f.wave.latest > now && f.wave.forgot[node] {
					forgotten++
				}
				if got := net.floods.heard(cp, f.id, node, now); got != want {
					t.Fatalf("seed %d op %d: peer %d heard %#x = %v at %v, the model says %v", seed, op, node, f.id, got, now, want)
				}
				if got := ps[node].markSeen(cp); got != want {
					t.Fatalf("seed %d op %d: peer %d markSeen(%#x) = %v at %v, the model says %v", seed, op, node, f.id, got, now, want)
				}
				if !want {
					f.wave.mark(node, now)
				}
				if !old {
					ref.mark(node, f.id, now)
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
				for q := int32(0); q < peers; q++ {
					want, old := f.wave.seen(q, now), ref.seen(q, f.id, now)
					if got := f.rec.seen(q, now); got != want {
						t.Fatalf("seed %d op %d: peer %d seen(%#x) = %v at %v, the model says %v", seed, op, q, f.id, got, now, want)
					}
					switch {
					case now < f.first+seenRetention:
						if want != old {
							t.Fatalf("seed %d op %d: peer %d, %v after flood %#x's first mark: the record rule says %v, the per-mark rule %v", seed, op, q, now-f.first, f.id, want, old)
						}
						agreed++
					case want != old:
						differed++
					}
				}
			}
		}
	}
	if recycled == 0 || agreed == 0 || differed == 0 || forgotten == 0 || reused == 0 {
		t.Fatalf("the streams missed a case: %d floods released, %d checks within seenRetention of a first mark, %d where the rules differ, %d deliveries of a forgotten mark, %d births on a recycled record",
			recycled, agreed, differed, forgotten, reused)
	}
	t.Logf("%d floods released, %d checks within seenRetention of a first mark, %d where the rules differ, %d deliveries of a forgotten mark, %d births on a recycled record",
		recycled, agreed, differed, forgotten, reused)
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

// TestFloodRecordRecycling: releasing a record's last reference puts it
// on the freelist, slice kept, latest zeroed, generation bumped, and the
// next flood to open takes it and answers as a fresh record.
func TestFloodRecordRecycling(t *testing.T) {
	f := &floodIndex{}
	m := &message{}
	r := f.open(m, 1, 0)
	for _, n := range []int32{1, 2, 3} {
		r.mark(n, 0)
	}
	nodes, gen := cap(r.nodes), r.gen
	f.release(r, m.recGen)
	if len(f.free) != 1 || f.free[0] != r {
		t.Fatal("a record whose last reference was released is not on the freelist")
	}
	if r.latest != 0 || len(r.nodes) != 0 || r.gen != gen+1 {
		t.Fatalf("the recycled record kept latest %v, %d marks, generation %d (was %d)", r.latest, len(r.nodes), r.gen, gen)
	}
	if cap(r.nodes) != nodes {
		t.Fatal("recycling dropped the record's slice")
	}
	if got := f.open(&message{}, 2, 200); got != r || len(f.free) != 0 || f.built != 1 {
		t.Fatal("a flood opened beside a free record did not take it")
	}
	if r.mark(2, 200) || r.seen(1, 200) || !r.seen(2, 200) || r.latest != 320 {
		t.Fatalf("the recycled record answers as its predecessor: marks %v, latest %v", r.nodes, r.latest)
	}
}

// TestFloodRecordBytes pins what a wave's record retains: its peers at 4
// B each, so 27 marks (records on the bench workloads average 25-27)
// retain 128 B with append's doubling, and one expiry for the record,
// which is 48 B.
func TestFloodRecordBytes(t *testing.T) {
	r := &floodRec{}
	for i := int32(0); i < 27; i++ {
		r.mark(i, float64(i*4/27))
	}
	const limit = 128
	if got := cap(r.nodes) * 4; got > limit {
		t.Errorf("27 marks retain %d B, limit %d B", got, limit)
	}
	if got := unsafe.Sizeof(floodRec{}); got != 48 {
		t.Errorf("a flood record is %d B, want 48", got)
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
