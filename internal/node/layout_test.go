package node

import (
	"math/rand"
	"reflect"
	"testing"
)

// The tests below pin the container semantics directly — collision
// probing, load-factor growth, prune-as-rebuild, swap-delete and the
// freelist — where a scenario run would only exercise them implicitly.

// each visits every entry in table order: the map model's view of the
// table's contents.
func (t *seenTable) each(fn func(id uint64, exp float64)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(k, t.exps[i])
		}
	}
}

func TestSeenTableStoreLookupGrow(t *testing.T) {
	var tab seenTable
	if _, ok := tab.lookup(42); ok {
		t.Fatalf("lookup on an empty table reported a hit")
	}
	// Push well past the 3/4 load factor of the minimum 16-slot table
	// so the table grows (and rehashes) several times. Sequential IDs
	// also land in clustered slots under Fibonacci hashing, exercising
	// the linear-probe path.
	const n = 200
	for id := uint64(1); id <= n; id++ {
		tab.store(id, float64(id))
	}
	if tab.used != n {
		t.Fatalf("used = %d after %d distinct stores", tab.used, n)
	}
	if len(tab.keys)&(len(tab.keys)-1) != 0 {
		t.Fatalf("table size %d is not a power of two", len(tab.keys))
	}
	if tab.used*4 > len(tab.keys)*3 {
		t.Fatalf("load factor above 3/4: %d used in %d slots", tab.used, len(tab.keys))
	}
	for id := uint64(1); id <= n; id++ {
		exp, ok := tab.lookup(id)
		if !ok || exp != float64(id) {
			t.Fatalf("lookup(%d) = %v, %v; want %v, true", id, exp, ok, float64(id))
		}
	}
	if _, ok := tab.lookup(n + 1); ok {
		t.Fatalf("lookup reported a hit for an absent ID")
	}
	// Overwriting must refresh in place, not duplicate.
	tab.store(7, 99.5)
	if exp, ok := tab.lookup(7); !ok || exp != 99.5 {
		t.Fatalf("overwrite: lookup(7) = %v, %v; want 99.5, true", exp, ok)
	}
	if tab.used != n {
		t.Fatalf("used = %d after overwrite, want %d", tab.used, n)
	}
}

func TestSeenTablePrune(t *testing.T) {
	var tab seenTable
	for id := uint64(1); id <= 100; id++ {
		tab.store(id, float64(id))
	}
	// Prune drops expiries <= now and keeps strictly-later ones.
	tab.prune(50)
	if tab.used != 50 {
		t.Fatalf("used = %d after pruning at 50, want 50", tab.used)
	}
	for id := uint64(1); id <= 100; id++ {
		_, ok := tab.lookup(id)
		if want := id > 50; ok != want {
			t.Fatalf("after prune, lookup(%d) hit = %v, want %v", id, ok, want)
		}
	}
	// Pruning everything must leave a usable (re-initialized) table.
	tab.prune(1000)
	if tab.used != 0 {
		t.Fatalf("used = %d after pruning everything", tab.used)
	}
	tab.store(5, 6)
	if exp, ok := tab.lookup(5); !ok || exp != 6 {
		t.Fatalf("store after full prune: lookup(5) = %v, %v", exp, ok)
	}
}

// collidingIDs returns n nonzero flood IDs whose hashes share their top
// 16 bits, so they contend for one home slot at every table size the
// tests reach.
func collidingIDs(n int) []uint64 {
	mul := hashID(1)
	inv := uint64(1) // mul's inverse mod 2^64; Newton doubles the correct low bits per round
	for i := 0; i < 6; i++ {
		inv *= 2 - mul*inv
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = inv * (0xABCD<<48 | uint64(i+1))
	}
	return ids
}

// TestSeenTableMatchesMapModel drives fuzzed store / lookup / prune /
// reset / iterate streams through a seenTable and a plain map, with a
// third of the IDs colliding on one probe chain and whole-number
// expiries so prunes land exactly on them, and requires the two to
// agree after every operation.
func TestSeenTableMatchesMapModel(t *testing.T) {
	clash := collidingIDs(48)
	for _, id := range clash[1:] {
		if id == 0 || hashID(id)>>48 != hashID(clash[0])>>48 {
			t.Fatalf("ID %#x does not share a home slot with %#x", id, clash[0])
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab seenTable
		model := map[uint64]float64{}
		now := 0.0
		pick := func() uint64 {
			if rng.Intn(3) == 0 {
				return clash[rng.Intn(len(clash))]
			}
			return uint64(1 + rng.Intn(300))
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(20); {
			case r < 10:
				id, exp := pick(), now+float64(rng.Intn(12))
				tab.store(id, exp)
				model[id] = exp
			case r < 16:
				id := pick()
				exp, ok := tab.lookup(id)
				if want, wantOK := model[id]; ok != wantOK || exp != want {
					t.Fatalf("seed %d op %d: lookup(%#x) = %v, %v; the map holds %v, %v", seed, op, id, exp, ok, want, wantOK)
				}
			case r < 18:
				now += float64(rng.Intn(5))
				tab.prune(now)
				for id, exp := range model {
					if exp <= now {
						delete(model, id)
					}
				}
			case r < 19:
				tab.init(rng.Intn(40))
				clear(model)
			default:
				seen := map[uint64]float64{}
				tab.each(func(id uint64, exp float64) {
					if _, dup := seen[id]; dup {
						t.Fatalf("seed %d op %d: each visited %#x twice", seed, op, id)
					}
					seen[id] = exp
				})
				if !reflect.DeepEqual(seen, model) {
					t.Fatalf("seed %d op %d: each visited %v, the map holds %v", seed, op, seen, model)
				}
			}
			if tab.used != len(model) {
				t.Fatalf("seed %d op %d: %d entries, the map holds %d", seed, op, tab.used, len(model))
			}
		}
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
