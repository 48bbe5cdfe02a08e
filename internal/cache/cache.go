// Package cache implements the peer cache of PReCinCt's cooperative
// caching scheme: a byte-capacity-bounded dynamic cache with pluggable
// replacement policies, plus the unbounded static store that holds the
// values of keys belonging to the peer's current region.
//
// The paper's replacement algorithm is Greedy-Dual Least-Distance (GD-LD):
// every cached item carries a utility
//
//	U = wr*ac + wd*reg_dst + ws*(1/size)
//
// (ac = regional access count, reg_dst = distance between the requesting
// and home regions, size = item size) aged greedy-dual style: the cache
// keeps an inflation value L equal to the utility of the last victim, a
// new or re-accessed item gets U = L + u(item), and the victim is always
// the minimum-utility entry. GD-Size (Cao & Irani) — the paper's baseline
// — and LRU/LFU are provided for comparison and ablation.
package cache

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"precinct/internal/workload"
)

// Entry is one cached item together with the bookkeeping the policies use.
type Entry struct {
	Key     workload.Key
	Size    int    // bytes
	Version uint64 // data version, maintained by the consistency layer

	AccessCount int     // times requested while cached here (regional popularity proxy)
	RegionDist  float64 // meters between the requesting region and the item's home region
	LastAccess  float64 // sim time of the most recent access
	FetchedAt   float64 // sim time the item entered the cache

	// TTRExpiry is the sim time until which the cached copy may be used
	// without polling the home region (Push with Adaptive Pull). The
	// consistency layer maintains it; math.Inf(1) means "never stale".
	TTRExpiry float64

	// Utility is the aged utility greedy-dual policies order by.
	Utility float64
}

// Policy computes the un-aged utility of an entry. Implementations must be
// pure functions of the entry.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Utility returns the entry's raw (un-aged) utility; higher is more
	// valuable.
	Utility(e *Entry) float64
	// Aged reports whether the greedy-dual inflation term applies.
	Aged() bool
}

// Weights are the GD-LD utility weights. The paper leaves them free; the
// defaults scale each term to order one for the paper's scenario (region
// distances of a few hundred meters, item sizes of a few KB).
type Weights struct {
	WR float64 // access-count weight (wr)
	WD float64 // region-distance weight per meter (wd)
	WS float64 // size weight: contributes WS/size (ws)
}

// DefaultWeights balances the three terms for the paper's 1200 m area and
// KB-scale items.
func DefaultWeights() Weights { return Weights{WR: 1.0, WD: 1.0 / 400.0, WS: 4096} }

// Validate rejects negative or all-zero weights.
func (w Weights) Validate() error {
	if w.WR < 0 || w.WD < 0 || w.WS < 0 {
		return fmt.Errorf("cache: negative GD-LD weight %+v", w)
	}
	if w.WR == 0 && w.WD == 0 && w.WS == 0 {
		return fmt.Errorf("cache: all GD-LD weights zero")
	}
	return nil
}

// GDLD is the paper's Greedy-Dual Least-Distance policy.
type GDLD struct {
	W Weights
}

// NewGDLD builds the policy, validating the weights.
func NewGDLD(w Weights) (*GDLD, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &GDLD{W: w}, nil
}

// Name implements Policy.
func (p *GDLD) Name() string { return "GD-LD" }

// Aged implements Policy.
func (p *GDLD) Aged() bool { return true }

// Utility implements Policy: U = wr*ac + wd*reg_dst + ws/size.
func (p *GDLD) Utility(e *Entry) float64 {
	u := p.W.WR*float64(e.AccessCount) + p.W.WD*e.RegionDist
	if e.Size > 0 {
		u += p.W.WS / float64(e.Size)
	}
	return u
}

// GDSize is the GD-Size(1) baseline: utility 1/size, aged. It favors
// small items regardless of popularity or distance — exactly the weakness
// the paper's Figures 4 and 5 expose.
type GDSize struct{}

// Name implements Policy.
func (GDSize) Name() string { return "GD-Size" }

// Aged implements Policy.
func (GDSize) Aged() bool { return true }

// Utility implements Policy.
func (GDSize) Utility(e *Entry) float64 {
	if e.Size <= 0 {
		return 1
	}
	return 1 / float64(e.Size)
}

// LRU evicts the least recently used entry.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "LRU" }

// Aged implements Policy.
func (LRU) Aged() bool { return false }

// Utility implements Policy.
func (LRU) Utility(e *Entry) float64 { return e.LastAccess }

// LFU evicts the least frequently used entry.
type LFU struct{}

// Name implements Policy.
func (LFU) Name() string { return "LFU" }

// Aged implements Policy.
func (LFU) Aged() bool { return false }

// Utility implements Policy.
func (LFU) Utility(e *Entry) float64 { return float64(e.AccessCount) }

// Cache is the dynamic cache space of one peer. Entries are stored by
// value in items; keys maps a key to its slot, and heap (heap.go) orders
// the slots for eviction. Removing an entry moves the last slot into the
// hole, so items stays dense. A cache that never admitted anything holds
// no map and no arrays, and a nil *Cache reads as an empty one.
type Cache struct {
	capacity int64
	used     int64
	keys     map[workload.Key]int32
	items    []slot
	heap     []int32
	policy   Policy
	inflate  float64 // greedy-dual L

	evictions uint64

	// evictScratch backs the slice Put returns, reused across calls so
	// steady-state eviction does not allocate. Its contents are valid
	// only until the next Put.
	evictScratch []Entry

	// inflateRegressed records a greedy-dual aging-floor decrease, which
	// the paper's algorithm forbids (L only ever rises to the utility of
	// the latest victim). CheckInvariants reports it.
	inflateRegressed bool
	// evictionDisabled is a test hook: Put stops evicting, so occupancy
	// can exceed capacity. It exists solely so the invariant checker can
	// be proven to catch a broken build.
	evictionDisabled bool
}

// slot is one cached entry and its position in the victim heap.
type slot struct {
	Entry
	heapPos int32
}

// New returns an empty cache with the given byte capacity, using the
// victim heap (heap.go) to find eviction victims in O(log n).
func New(capacity int64, policy Policy) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	return &Cache{capacity: capacity, policy: policy}, nil
}

// Capacity returns the configured capacity in bytes.
func (c *Cache) Capacity() int64 { return c.capacity }

// Used returns the bytes currently occupied.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.items)
}

// Inflation returns the current greedy-dual L value.
func (c *Cache) Inflation() float64 { return c.inflate }

// Evictions returns the number of victims evicted.
func (c *Cache) Evictions() uint64 { return c.evictions }

// refresh re-ages an entry's utility after its bookkeeping changed.
func (c *Cache) refresh(e *Entry) {
	u := c.policy.Utility(e)
	if c.policy.Aged() {
		u += c.inflate
	}
	e.Utility = u
}

// lookup returns the slot index of a key.
func (c *Cache) lookup(k workload.Key) (int32, bool) {
	if c == nil {
		return 0, false
	}
	i, ok := c.keys[k]
	return i, ok
}

// Get looks a key up, updating access bookkeeping and the utility value on
// a hit (the paper: "The utility value of the data item is updated when
// there is a hit"). The pointer is into the cache's storage: it sees
// later Gets and Updates, and it is valid only until the next Put on
// this cache, which may move the entry.
func (c *Cache) Get(k workload.Key, now float64) (*Entry, bool) {
	i, ok := c.lookup(k)
	if !ok {
		return nil, false
	}
	s := &c.items[i]
	s.AccessCount++
	s.LastAccess = now
	c.refresh(&s.Entry)
	c.fix(s.heapPos)
	return &s.Entry, true
}

// Peek looks a key up without touching any bookkeeping. The pointer is
// valid only until the next Put on this cache, as Get's is.
func (c *Cache) Peek(k workload.Key) (*Entry, bool) {
	i, ok := c.lookup(k)
	if !ok {
		return nil, false
	}
	return &c.items[i].Entry, true
}

// Put inserts an item, evicting minimum-utility entries until it fits.
// The entry's AccessCount/RegionDist/Size/Version fields must be filled
// by the caller; Utility is computed here. Items larger than the whole
// cache are refused (ok == false) without disturbing current contents.
// The evicted entries are returned for observability; the slice is
// backed by a scratch buffer reused across calls, so it is valid only
// until the next Put on this cache. Put invalidates every pointer Get
// or Peek returned.
func (c *Cache) Put(e Entry, now float64) (evicted []Entry, ok bool) {
	if int64(e.Size) > c.capacity || e.Size <= 0 {
		return nil, false
	}
	if c.keys == nil {
		c.keys = make(map[workload.Key]int32)
	}
	evicted = c.evictScratch[:0]
	if i, exists := c.keys[e.Key]; exists {
		// Replacing an existing copy (e.g. a fresher version): keep
		// accumulated popularity.
		e.AccessCount += c.items[i].AccessCount
		c.used -= int64(c.items[i].Size)
		c.remove(i)
	}
	for c.used+int64(e.Size) > c.capacity && !c.evictionDisabled && len(c.heap) > 0 {
		victim := c.heap[0]
		v := &c.items[victim]
		if c.policy.Aged() {
			if v.Utility < c.inflate {
				c.inflateRegressed = true
			}
			c.inflate = v.Utility
		}
		c.used -= int64(v.Size)
		c.evictions++
		evicted = append(evicted, v.Entry)
		c.remove(victim)
	}
	e.LastAccess = now
	e.FetchedAt = now
	// Age the stored copy, not e: a pointer to e would pass through the
	// Policy interface and move every admitted entry to the heap.
	s := int32(len(c.items))
	c.keys[e.Key] = s
	c.items = append(c.items, slot{Entry: e})
	c.refresh(&c.items[s].Entry)
	c.used += int64(e.Size)
	c.push(s)
	c.evictScratch = evicted[:0]
	if len(evicted) == 0 {
		return nil, true
	}
	return evicted, true
}

// remove drops slot i from the heap and the key index, then moves the
// last slot into the hole.
func (c *Cache) remove(i int32) {
	c.heapRemove(c.items[i].heapPos)
	delete(c.keys, c.items[i].Key)
	last := int32(len(c.items) - 1)
	if i != last {
		c.items[i] = c.items[last]
		c.keys[c.items[i].Key] = i
		c.heap[c.items[i].heapPos] = i
	}
	c.items = c.items[:last]
}

// SetEvictionDisabledForTest turns the eviction loop in Put off (or back
// on). It deliberately breaks the capacity bound and exists only so tests
// can demonstrate that the invariant checker detects the violation.
func (c *Cache) SetEvictionDisabledForTest(disabled bool) { c.evictionDisabled = disabled }

// CheckInvariants verifies the cache's paper-derived invariants:
// occupancy never exceeds capacity, the occupancy accumulator matches the
// sum of entry sizes, every entry is positively sized, and the greedy-dual
// aging floor L never decreased. Returns nil when all hold.
func (c *Cache) CheckInvariants() error {
	if c.used > c.capacity {
		return fmt.Errorf("cache: occupancy %d exceeds capacity %d", c.used, c.capacity)
	}
	var sum int64
	for i := range c.items {
		e := &c.items[i].Entry
		if e.Size <= 0 {
			return fmt.Errorf("cache: entry %d has non-positive size %d", e.Key, e.Size)
		}
		sum += int64(e.Size)
	}
	if sum != c.used {
		return fmt.Errorf("cache: occupancy accumulator %d != sum of entry sizes %d", c.used, sum)
	}
	if c.inflateRegressed {
		return fmt.Errorf("cache: greedy-dual aging floor L decreased (currently %g)", c.inflate)
	}
	if c.policy.Aged() && (math.IsNaN(c.inflate) || c.inflate < 0) {
		return fmt.Errorf("cache: invalid aging floor L=%g", c.inflate)
	}
	return c.checkIndex()
}

// Update applies a pushed update to a cached copy: new version, new TTR
// expiry. It reports whether the key was cached.
func (c *Cache) Update(k workload.Key, version uint64, ttrExpiry float64) bool {
	i, ok := c.lookup(k)
	if !ok {
		return false
	}
	e := &c.items[i]
	e.Version = version
	e.TTRExpiry = ttrExpiry
	return true
}

// Keys returns the cached keys in ascending order.
func (c *Cache) Keys() []workload.Key {
	out := make([]workload.Key, 0, c.Len())
	for i := 0; i < c.Len(); i++ {
		out = append(out, c.items[i].Key)
	}
	slices.Sort(out)
	return out
}

// Entries returns copies of all entries, ordered by key.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.Len())
	for i := 0; i < c.Len(); i++ {
		out = append(out, c.items[i].Entry)
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Store is the static cache space: the copies this peer is custodian of,
// one per key, each at one replica rank. It is unbounded (the paper sizes
// only the dynamic space) and carries the authoritative version and TTR
// of every copy.
//
// The store has two kinds of reader. Lookups read a copy's value
// (Version, TTR, UpdatedAt, Size). The re-homing pass reads only which
// (key, rank) pairs are held: a copy's proper region is a function of its
// key, its rank and the region table, so writing a new value over a held
// copy cannot change where the copy belongs. CustodyGen moves with the
// second kind of change and not with the first.
type Store struct {
	items map[workload.Key]*StoredItem
	gen   uint64
}

// StoredItem is the authoritative copy of a key at its home (or replica)
// region.
type StoredItem struct {
	Key     workload.Key
	Size    int
	Version uint64
	// ReplicaRank is the copy's replica rank: 0 for the primary copy in
	// the key's home region, r >= 1 for the copy belonging to the key's
	// rank-r replica region (the (r+1)-th nearest region center to the
	// key's hash location).
	ReplicaRank int
	// UpdatedAt is the sim time of the last accepted update.
	UpdatedAt float64
	// TTR is the current Time-to-Refresh estimate in seconds,
	// maintained with exponential smoothing by the consistency layer.
	TTR float64
}

// NewStore returns an empty static store. The backing map is allocated
// on first Put: at large N the vast majority of peers never hold a key,
// and 100k empty maps are pure startup RSS.
func NewStore() *Store { return &Store{} }

// Len returns the number of stored keys.
func (s *Store) Len() int { return len(s.items) }

// CustodyGen is the store's custody generation: it moves whenever the
// set of (key, replica rank) pairs held changes, which is a key
// inserted, a key removed or a held key Put at another rank. Two equal
// readings mean the store holds the same copies at the same ranks,
// whatever was written to their values in between.
func (s *Store) CustodyGen() uint64 { return s.gen }

// Put inserts an item, or overwrites the held copy of its key in place:
// a pointer Get returned earlier sees the new value, so callers must not
// keep one across a Put they mean to compare against.
func (s *Store) Put(it StoredItem) {
	if cur, ok := s.items[it.Key]; ok {
		if cur.ReplicaRank != it.ReplicaRank {
			s.gen++
		}
		*cur = it
		return
	}
	if s.items == nil {
		s.items = make(map[workload.Key]*StoredItem)
	}
	cp := it
	s.items[it.Key] = &cp
	s.gen++
}

// Get returns the stored item for a key.
func (s *Store) Get(k workload.Key) (*StoredItem, bool) {
	it, ok := s.items[k]
	return it, ok
}

// Remove drops a key, reporting whether it was present.
func (s *Store) Remove(k workload.Key) bool {
	if _, ok := s.items[k]; !ok {
		return false
	}
	delete(s.items, k)
	s.gen++
	return true
}

// Keys returns the stored keys in ascending order.
func (s *Store) Keys() []workload.Key {
	out := make([]workload.Key, 0, len(s.items))
	for k := range s.items {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// NeverExpires is the TTR expiry used when consistency is disabled.
var NeverExpires = math.Inf(1)
