package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"precinct/internal/workload"
)

func mustGDLD(t *testing.T) *GDLD {
	t.Helper()
	p, err := NewGDLD(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newCache(t *testing.T, capacity int64, p Policy) *Cache {
	t.Helper()
	c, err := New(capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Weights{WR: -1, WD: 1, WS: 1}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	if err := (Weights{}).Validate(); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewGDLD(Weights{}); err == nil {
		t.Error("NewGDLD accepted zero weights")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, GDSize{}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(100, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	if mustGDLD(t).Name() != "GD-LD" {
		t.Error("GD-LD name")
	}
	if (GDSize{}).Name() != "GD-Size" || (LRU{}).Name() != "LRU" || (LFU{}).Name() != "LFU" {
		t.Error("policy names wrong")
	}
}

func TestGDLDUtilityTerms(t *testing.T) {
	p, _ := NewGDLD(Weights{WR: 2, WD: 0.5, WS: 100})
	e := &Entry{AccessCount: 3, RegionDist: 10, Size: 50}
	want := 2*3 + 0.5*10 + 100.0/50
	if got := p.Utility(e); math.Abs(got-want) > 1e-12 {
		t.Errorf("Utility = %v, want %v", got, want)
	}
}

func TestGDLDFavorsDistantItems(t *testing.T) {
	p := mustGDLD(t)
	near := &Entry{AccessCount: 1, RegionDist: 100, Size: 2048}
	far := &Entry{AccessCount: 1, RegionDist: 900, Size: 2048}
	if p.Utility(far) <= p.Utility(near) {
		t.Error("GD-LD should value distant items higher")
	}
}

func TestGDSizeIgnoresPopularity(t *testing.T) {
	p := GDSize{}
	popular := &Entry{AccessCount: 100, Size: 4096}
	unpopular := &Entry{AccessCount: 0, Size: 4096}
	if p.Utility(popular) != p.Utility(unpopular) {
		t.Error("GD-Size should ignore access counts")
	}
	small := &Entry{Size: 100}
	big := &Entry{Size: 10000}
	if p.Utility(small) <= p.Utility(big) {
		t.Error("GD-Size should favor small items")
	}
}

func TestGetPutBasics(t *testing.T) {
	c := newCache(t, 1000, mustGDLD(t))
	if _, ok := c.Get(workload.Key(1), 0); ok {
		t.Fatal("hit on empty cache")
	}
	if c.Misses() != 1 {
		t.Error("miss not counted")
	}
	if _, ok := c.Put(Entry{Key: 1, Size: 400}, 1); !ok {
		t.Fatal("Put failed")
	}
	e, ok := c.Get(workload.Key(1), 2)
	if !ok {
		t.Fatal("miss after Put")
	}
	if e.AccessCount != 1 || e.LastAccess != 2 {
		t.Errorf("bookkeeping not updated: %+v", e)
	}
	if c.Hits() != 1 {
		t.Error("hit not counted")
	}
	if c.Used() != 400 || c.Len() != 1 {
		t.Errorf("Used=%d Len=%d", c.Used(), c.Len())
	}
}

func TestPutRejectsOversized(t *testing.T) {
	c := newCache(t, 1000, GDSize{})
	if _, ok := c.Put(Entry{Key: 1, Size: 1001}, 0); ok {
		t.Fatal("oversized item accepted")
	}
	if _, ok := c.Put(Entry{Key: 2, Size: 0}, 0); ok {
		t.Fatal("zero-size item accepted")
	}
	if c.Used() != 0 {
		t.Error("failed Put changed usage")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := newCache(t, 1000, mustGDLD(t))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		size := 50 + rng.Intn(400)
		c.Put(Entry{Key: workload.Key(i), Size: size, RegionDist: rng.Float64() * 1000}, float64(i))
		if c.Used() > c.Capacity() {
			t.Fatalf("capacity exceeded: %d > %d", c.Used(), c.Capacity())
		}
	}
}

func TestEvictionPicksMinUtility(t *testing.T) {
	c := newCache(t, 1000, mustGDLD(t))
	// Three items; the middle one has lowest utility (near, unpopular,
	// large).
	c.Put(Entry{Key: 1, Size: 400, RegionDist: 900, AccessCount: 5}, 0)
	c.Put(Entry{Key: 2, Size: 400, RegionDist: 10, AccessCount: 0}, 0)
	evicted, ok := c.Put(Entry{Key: 3, Size: 400, RegionDist: 500, AccessCount: 2}, 1)
	if !ok {
		t.Fatal("Put failed")
	}
	if len(evicted) != 1 || evicted[0].Key != 2 {
		t.Fatalf("evicted %v, want key 2", evicted)
	}
}

func TestGreedyDualAging(t *testing.T) {
	// After evictions, L rises; a new item with small raw utility must
	// still rank above long-dead entries (aging prevents starvation).
	c := newCache(t, 800, GDSize{})
	c.Put(Entry{Key: 1, Size: 400}, 0)
	c.Put(Entry{Key: 2, Size: 400}, 0)
	if c.Inflation() != 0 {
		t.Fatal("inflation moved without eviction")
	}
	c.Put(Entry{Key: 3, Size: 400}, 1) // evicts one; L = its utility
	if c.Inflation() <= 0 {
		t.Fatal("inflation did not rise after eviction")
	}
	e, _ := c.Peek(workload.Key(3))
	if e.Utility <= c.Inflation() {
		t.Error("new entry's utility not aged above L")
	}
}

func TestLRUPolicyEvictsOldest(t *testing.T) {
	c := newCache(t, 300, LRU{})
	c.Put(Entry{Key: 1, Size: 100}, 1)
	c.Put(Entry{Key: 2, Size: 100}, 2)
	c.Put(Entry{Key: 3, Size: 100}, 3)
	c.Get(workload.Key(1), 4) // refresh key 1
	evicted, _ := c.Put(Entry{Key: 4, Size: 100}, 5)
	if len(evicted) != 1 || evicted[0].Key != 2 {
		t.Fatalf("LRU evicted %v, want key 2", evicted)
	}
}

func TestLFUPolicyEvictsLeastFrequent(t *testing.T) {
	c := newCache(t, 300, LFU{})
	c.Put(Entry{Key: 1, Size: 100}, 1)
	c.Put(Entry{Key: 2, Size: 100}, 1)
	c.Put(Entry{Key: 3, Size: 100}, 1)
	for i := 0; i < 5; i++ {
		c.Get(workload.Key(1), float64(2+i))
		c.Get(workload.Key(3), float64(2+i))
	}
	c.Get(workload.Key(2), 10)
	evicted, _ := c.Put(Entry{Key: 4, Size: 100}, 11)
	if len(evicted) != 1 || evicted[0].Key != 2 {
		t.Fatalf("LFU evicted %v, want key 2", evicted)
	}
}

func TestPutReplaceKeepsPopularity(t *testing.T) {
	c := newCache(t, 1000, mustGDLD(t))
	c.Put(Entry{Key: 1, Size: 400}, 0)
	c.Get(workload.Key(1), 1)
	c.Get(workload.Key(1), 2)
	c.Put(Entry{Key: 1, Size: 500, Version: 2}, 3) // fresher version
	e, _ := c.Peek(workload.Key(1))
	if e.AccessCount != 2 {
		t.Errorf("replace lost popularity: %d", e.AccessCount)
	}
	if e.Version != 2 || e.Size != 500 {
		t.Errorf("replace did not take new fields: %+v", e)
	}
	if c.Used() != 500 {
		t.Errorf("Used = %d after replace", c.Used())
	}
}

func TestMultipleEvictionsForLargeItem(t *testing.T) {
	c := newCache(t, 1000, GDSize{})
	for i := 0; i < 5; i++ {
		c.Put(Entry{Key: workload.Key(i), Size: 200}, float64(i))
	}
	evicted, ok := c.Put(Entry{Key: 99, Size: 900}, 10)
	if !ok {
		t.Fatal("Put failed")
	}
	if len(evicted) < 4 {
		t.Fatalf("evicted only %d entries for a 900-byte item", len(evicted))
	}
	if c.Used() > c.Capacity() {
		t.Fatal("capacity exceeded")
	}
}

func TestUpdate(t *testing.T) {
	c := newCache(t, 1000, GDSize{})
	c.Put(Entry{Key: 1, Size: 300, Version: 1}, 0)
	if !c.Update(workload.Key(1), 5, 123.0) {
		t.Fatal("Update returned false")
	}
	e, _ := c.Peek(workload.Key(1))
	if e.Version != 5 || e.TTRExpiry != 123.0 {
		t.Errorf("Update not applied: %+v", e)
	}
	if c.Update(workload.Key(9), 1, 0) {
		t.Fatal("Update of missing key returned true")
	}
}

func TestKeysAndEntriesSorted(t *testing.T) {
	c := newCache(t, 10000, GDSize{})
	for _, k := range []workload.Key{5, 1, 9, 3} {
		c.Put(Entry{Key: k, Size: 100}, 0)
	}
	keys := c.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys not sorted: %v", keys)
		}
	}
	entries := c.Entries()
	if len(entries) != 4 {
		t.Fatalf("Entries len %d", len(entries))
	}
	for i := range entries {
		if entries[i].Key != keys[i] {
			t.Error("Entries order differs from Keys")
		}
	}
}

func TestPeekDoesNotTouchBookkeeping(t *testing.T) {
	c := newCache(t, 1000, GDSize{})
	c.Put(Entry{Key: 1, Size: 100}, 0)
	before, _ := c.Peek(workload.Key(1))
	ac := before.AccessCount
	c.Peek(workload.Key(1))
	after, _ := c.Peek(workload.Key(1))
	if after.AccessCount != ac {
		t.Error("Peek changed access count")
	}
	if c.Hits() != 0 && c.Misses() != 0 {
		t.Error("Peek touched hit/miss counters")
	}
}

func TestZeroCapacityCacheRejectsAll(t *testing.T) {
	c := newCache(t, 0, GDSize{})
	if _, ok := c.Put(Entry{Key: 1, Size: 1}, 0); ok {
		t.Fatal("zero-capacity cache accepted an item")
	}
}

// Property: for any operation sequence, used bytes equal the sum of
// resident entry sizes and never exceed capacity.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(ops []struct {
		Key  uint8
		Size uint16
		Get  bool
	}) bool {
		p, _ := NewGDLD(DefaultWeights())
		c, _ := New(2000, p)
		now := 0.0
		for _, op := range ops {
			now++
			if op.Get {
				c.Get(workload.Key(op.Key), now)
			} else {
				c.Put(Entry{Key: workload.Key(op.Key), Size: int(op.Size%3000) + 1}, now)
			}
			var sum int64
			for _, e := range c.Entries() {
				sum += int64(e.Size)
			}
			if sum != c.Used() || c.Used() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the greedy-dual inflation value never decreases.
func TestInflationMonotone(t *testing.T) {
	c := newCache(t, 500, GDSize{})
	rng := rand.New(rand.NewSource(9))
	last := c.Inflation()
	for i := 0; i < 300; i++ {
		c.Put(Entry{Key: workload.Key(rng.Intn(50)), Size: 50 + rng.Intn(200)}, float64(i))
		if c.Inflation() < last {
			t.Fatalf("inflation decreased: %v -> %v", last, c.Inflation())
		}
		last = c.Inflation()
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	s.Put(StoredItem{Key: 7, Size: 100, Version: 1, TTR: 30})
	it, ok := s.Get(workload.Key(7))
	if !ok || it.Size != 100 {
		t.Fatalf("Get = %+v, %v", it, ok)
	}
	// Put copies its argument.
	orig := StoredItem{Key: 8, Size: 1}
	s.Put(orig)
	orig.Size = 999
	it8, _ := s.Get(workload.Key(8))
	if it8.Size != 1 {
		t.Error("Store aliased caller struct")
	}
	if !s.Remove(workload.Key(7)) || s.Remove(workload.Key(7)) {
		t.Error("Remove semantics wrong")
	}
	s.Put(StoredItem{Key: 3})
	s.Put(StoredItem{Key: 1})
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != 1 {
		t.Errorf("Keys = %v", keys)
	}
}

// TestStoreCustodyGen: the generation moves exactly when the set of
// (key, rank) pairs held changes, and never for a value written over a
// held copy, which lands in the copy a Get pointer already refers to.
func TestStoreCustodyGen(t *testing.T) {
	held := StoredItem{Key: 1, Size: 100, Version: 1, TTR: 30}
	steps := []struct {
		name  string
		do    func(s *Store)
		moves bool
	}{
		{"insert", func(s *Store) { s.Put(StoredItem{Key: 2, Size: 1}) }, true},
		{"overwrite at the same rank", func(s *Store) {
			s.Put(StoredItem{Key: 1, Size: 200, Version: 9, TTR: 5, UpdatedAt: 40})
		}, false},
		{"overwrite at another rank", func(s *Store) {
			s.Put(StoredItem{Key: 1, Size: 100, Version: 1, TTR: 30, ReplicaRank: 1})
		}, true},
		{"remove a held key", func(s *Store) { s.Remove(1) }, true},
		{"remove an absent key", func(s *Store) { s.Remove(7) }, false},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			s := NewStore()
			s.Put(held)
			before := s.CustodyGen()
			st.do(s)
			if moved := s.CustodyGen() != before; moved != st.moves {
				t.Errorf("generation %d -> %d, want moved = %v", before, s.CustodyGen(), st.moves)
			}
		})
	}

	s := NewStore()
	if s.CustodyGen() != 0 {
		t.Errorf("a fresh store starts at generation %d", s.CustodyGen())
	}
	s.Put(held)
	if s.CustodyGen() == 0 {
		t.Error("the first insert, into the lazily built map, did not move the generation")
	}
	got, _ := s.Get(1)
	s.Put(StoredItem{Key: 1, Size: 100, Version: 2, TTR: 12})
	if got.Version != 2 || got.TTR != 12 {
		t.Errorf("an earlier Get pointer reads %+v after an overwrite: not in place", *got)
	}
	s.Put(StoredItem{Key: 1, Size: 100, Version: 3, ReplicaRank: 2})
	if again, _ := s.Get(1); again != got || got.ReplicaRank != 2 {
		t.Errorf("a rank change replaced the copy instead of overwriting it: %+v", *got)
	}
}

func TestStoreOverwrite(t *testing.T) {
	s := NewStore()
	s.Put(StoredItem{Key: 1, Version: 1})
	s.Put(StoredItem{Key: 1, Version: 2})
	if s.Len() != 1 {
		t.Fatal("overwrite duplicated the key")
	}
	it, _ := s.Get(workload.Key(1))
	if it.Version != 2 {
		t.Error("overwrite kept the old version")
	}
}
