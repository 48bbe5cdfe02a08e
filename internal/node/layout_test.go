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

// TestFloodRecordsMatchSeenModel holds the flood records to the rule
// they replace: each peer remembers each dedup ID it marked until the
// mark is seenRetention old (a per-peer map from ID to expiry, a mark
// counting while its expiry is strictly later than now). Fuzzed streams
// over two replicas (peers 0-7 on one, 8-15 on the other) open floods,
// deliver copies within a replica as header copies and across replicas
// as cloned payloads, move the clock (onto exact expiries, to just
// short of them, and past seenRetention) and release copies. Each
// flood's first message is never released, so records recycle while old
// references are still held. After every operation each valid reference
// a message holds must name its own replica's record.
func TestFloodRecordsMatchSeenModel(t *testing.T) {
	const peers = 16
	kinds := []msgKind{kindSearchFlood, kindRegionalSearch, kindHomeFlood, kindUpdateFlood, kindInvalidate, kindPollFlood}
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
		net := &Network{sched: sched}
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
				m := p.net.newMsg(message{Kind: kinds[rng.Intn(len(kinds))]})
				id := p.newID()
				if m.Kind == kindRegionalSearch {
					m.ID = id
				} else {
					m.FloodID = id
				}
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
					cp = h.net.pool.acquire()
					*cp = *h.m
					cp.refs, cp.released = 1, false
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
