package cache

import (
	"math/rand"
	"testing"

	"precinct/internal/workload"
)

// policyForTest builds a named policy through the registry, failing the
// test on error. Going through the registry means a newly registered
// policy is automatically pulled into every registry-driven suite — it
// cannot escape the heap/linear-scan comparison or the contract battery
// by being forgotten here.
func policyForTest(t *testing.T, name string) Policy {
	t.Helper()
	p, err := NewPolicy(name, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cacheOp is one step of a fuzzed operation stream.
type cacheOp struct {
	kind    int // 0 put, 1 get, 2 update
	key     workload.Key
	size    int
	dist    float64
	version uint64
	now     float64
}

// genOps draws a deterministic operation stream that exercises every
// mutation path of the cache, with enough Put pressure to force long
// eviction chains.
func genOps(seed int64, n int) []cacheOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]cacheOp, 0, n)
	for i := 0; i < n; i++ {
		o := cacheOp{
			key: workload.Key(rng.Intn(60)),
			now: float64(i) + rng.Float64(),
		}
		switch r := rng.Intn(10); {
		case r < 5: // half the stream inserts
			o.kind = 0
			o.size = 128 + 64*rng.Intn(30)
			o.dist = float64(50 * rng.Intn(20))
			o.version = uint64(rng.Intn(5))
		case r < 8:
			o.kind = 1
		default:
			o.kind = 2
			o.version = uint64(rng.Intn(10))
		}
		ops = append(ops, o)
	}
	return ops
}

// minUtility is the O(n) victim scan the victim heap replaced: the entry
// with the minimum utility, ties broken to the smaller key.
func minUtility(c *Cache) *Entry {
	var victim *Entry
	for i := range c.items {
		e := &c.items[i].Entry
		if victim == nil {
			victim = e
			continue
		}
		if e.Utility < victim.Utility ||
			(e.Utility == victim.Utility && e.Key < victim.Key) {
			victim = e
		}
	}
	return victim
}

// replay runs an operation stream on one cache and holds the victim heap
// to the linear scan throughout: after every operation both name the
// same victim, and every entry a Put evicted preceded, in (Utility, Key)
// order, everything that Put left behind.
func replay(t *testing.T, c *Cache, ops []cacheOp) {
	t.Helper()
	for i, o := range ops {
		switch o.kind {
		case 0:
			ev, _ := c.Put(Entry{
				Key: o.key, Size: o.size, RegionDist: o.dist, Version: o.version,
			}, o.now)
			for j := range ev {
				if j > 0 && !victimLess(&ev[j-1], &ev[j]) {
					t.Fatalf("op %d: evicted %+v before %+v", i, ev[j-1], ev[j])
				}
				for s := range c.items {
					if e := &c.items[s].Entry; e.Key != o.key && victimLess(e, &ev[j]) {
						t.Fatalf("op %d: evicted %+v while %+v stayed", i, ev[j], *e)
					}
				}
			}
		case 1:
			c.Get(o.key, o.now)
		case 2:
			c.Update(o.key, o.version, o.now+30)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if heapMin, scanMin := c.min(), minUtility(c); heapMin != scanMin {
			t.Fatalf("op %d: heap min %+v, linear scan %+v", i, heapMin, scanMin)
		}
	}
}

// TestHeapLinearOpEquivalence replays fuzzed operation streams, for
// every registered policy, under replay's per-operation comparison of
// the victim heap with the linear scan (DESIGN.md section 11). Iterating
// Names() makes the suite self-extending: registering a policy enrolls
// it here.
func TestHeapLinearOpEquivalence(t *testing.T) {
	for _, policy := range Names() {
		t.Run(policy, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				c, err := New(8192, policyForTest(t, policy))
				if err != nil {
					t.Fatal(err)
				}
				replay(t, c, genOps(seed*7919, 1200))
				if c.Evictions() == 0 {
					t.Fatalf("seed %d: no evictions; the comparison is vacuous", seed)
				}
			}
		})
	}
}

// TestVictimIndexTracksMinUtility is the same comparison on a longer
// stream against a cache half the size, so eviction chains run deeper.
func TestVictimIndexTracksMinUtility(t *testing.T) {
	c, err := New(4096, policyForTest(t, "gd-ld"))
	if err != nil {
		t.Fatal(err)
	}
	replay(t, c, genOps(42, 2000))
	if c.Evictions() == 0 {
		t.Fatal("stream caused no evictions")
	}
}

// TestVictimIndexDetectsCorruption proves the CheckInvariants extension
// actually fires: breaking the heap order must be reported.
func TestVictimIndexDetectsCorruption(t *testing.T) {
	c, err := New(4096, policyForTest(t, "gd-ld"))
	if err != nil {
		t.Fatal(err)
	}
	for k := workload.Key(1); k <= 4; k++ {
		c.Put(Entry{Key: k, Size: 512, RegionDist: float64(k) * 100}, float64(k))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("healthy cache reported %v", err)
	}
	// Swap two heap positions without fixing the slots' recorded
	// positions: both those and (generally) the order invariant are now
	// wrong.
	h := c.heap
	if len(h) < 2 {
		t.Fatal("expected at least 2 entries in the heap")
	}
	h[0], h[1] = h[1], h[0]
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("corrupted victim index not detected")
	}
}

// TestPutEvictedScratchReuse pins the documented aliasing contract: the
// slice Put returns is valid until the next Put, and eviction-heavy
// steady state does not grow allocations per call.
func TestPutEvictedScratchReuse(t *testing.T) {
	c, err := New(1024, policyForTest(t, "gd-size"))
	if err != nil {
		t.Fatal(err)
	}
	c.Put(Entry{Key: 1, Size: 512}, 0)
	c.Put(Entry{Key: 2, Size: 512}, 1)
	ev, ok := c.Put(Entry{Key: 3, Size: 1024}, 2)
	if !ok || len(ev) != 2 {
		t.Fatalf("evicted %v, want both residents", ev)
	}
	ev2, _ := c.Put(Entry{Key: 4, Size: 1024}, 3)
	if len(ev2) != 1 || ev2[0].Key != 3 {
		t.Fatalf("second Put evicted %v, want [3]", ev2)
	}
	if &ev[0] != &ev2[0] {
		t.Fatal("scratch buffer was not reused across Puts")
	}
}
