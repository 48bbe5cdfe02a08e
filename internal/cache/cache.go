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

// Cache is the dynamic cache space of one peer.
type Cache struct {
	capacity int64
	used     int64
	entries  map[workload.Key]*Entry
	policy   Policy
	inflate  float64 // greedy-dual L

	evictions uint64
	hits      uint64
	misses    uint64

	// index is the heap-based victim index (heap.go).
	index *victimIndex
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

// New returns an empty cache with the given byte capacity, using the
// heap victim index (heap.go) to find eviction victims in O(log n).
func New(capacity int64, policy Policy) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[workload.Key]*Entry),
		policy:   policy,
		index:    newVictimIndex(),
	}, nil
}

// Capacity returns the configured capacity in bytes.
func (c *Cache) Capacity() int64 { return c.capacity }

// Used returns the bytes currently occupied.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Inflation returns the current greedy-dual L value.
func (c *Cache) Inflation() float64 { return c.inflate }

// Hits and Misses return the Get counters; Evictions the victim count.
func (c *Cache) Hits() uint64      { return c.hits }
func (c *Cache) Misses() uint64    { return c.misses }
func (c *Cache) Evictions() uint64 { return c.evictions }

// refresh re-ages an entry's utility after its bookkeeping changed.
func (c *Cache) refresh(e *Entry) {
	u := c.policy.Utility(e)
	if c.policy.Aged() {
		u += c.inflate
	}
	e.Utility = u
}

// Get looks a key up, updating access bookkeeping and the utility value on
// a hit (the paper: "The utility value of the data item is updated when
// there is a hit").
func (c *Cache) Get(k workload.Key, now float64) (*Entry, bool) {
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e.AccessCount++
	e.LastAccess = now
	c.refresh(e)
	c.index.fix(e.Key)
	return e, true
}

// Peek looks a key up without touching any bookkeeping or counters.
func (c *Cache) Peek(k workload.Key) (*Entry, bool) {
	e, ok := c.entries[k]
	return e, ok
}

// Put inserts an item, evicting minimum-utility entries until it fits.
// The entry's AccessCount/RegionDist/Size/Version fields must be filled
// by the caller; Utility is computed here. Items larger than the whole
// cache are refused (ok == false) without disturbing current contents.
// The evicted entries are returned for observability; the slice is
// backed by a scratch buffer reused across calls, so it is valid only
// until the next Put on this cache.
func (c *Cache) Put(e Entry, now float64) (evicted []Entry, ok bool) {
	if int64(e.Size) > c.capacity || e.Size <= 0 {
		return nil, false
	}
	evicted = c.evictScratch[:0]
	if old, exists := c.entries[e.Key]; exists {
		// Replacing an existing copy (e.g. a fresher version): keep
		// accumulated popularity.
		e.AccessCount += old.AccessCount
		c.used -= int64(old.Size)
		delete(c.entries, e.Key)
		c.index.remove(old.Key)
	}
	for c.used+int64(e.Size) > c.capacity && !c.evictionDisabled {
		victim := c.index.min()
		if victim == nil {
			break // cannot happen while used > 0; defensive
		}
		if c.policy.Aged() {
			if victim.Utility < c.inflate {
				c.inflateRegressed = true
			}
			c.inflate = victim.Utility
		}
		c.used -= int64(victim.Size)
		delete(c.entries, victim.Key)
		c.index.remove(victim.Key)
		c.evictions++
		evicted = append(evicted, *victim)
	}
	e.LastAccess = now
	e.FetchedAt = now
	c.refresh(&e)
	stored := e
	c.entries[e.Key] = &stored
	c.used += int64(e.Size)
	c.index.push(&stored)
	c.evictScratch = evicted[:0]
	if len(evicted) == 0 {
		return nil, true
	}
	return evicted, true
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
	for k, e := range c.entries {
		if e.Size <= 0 {
			return fmt.Errorf("cache: entry %d has non-positive size %d", k, e.Size)
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
	return c.index.check(c.entries)
}

// Update applies a pushed update to a cached copy: new version, new TTR
// expiry. It reports whether the key was cached.
func (c *Cache) Update(k workload.Key, version uint64, ttrExpiry float64) bool {
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	e.Version = version
	e.TTRExpiry = ttrExpiry
	return true
}

// Keys returns the cached keys in ascending order.
func (c *Cache) Keys() []workload.Key {
	out := make([]workload.Key, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Entries returns copies of all entries, ordered by key.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, k := range c.Keys() {
		out = append(out, *c.entries[k])
	}
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
