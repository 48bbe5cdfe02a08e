package cache

// Checkpoint support: the explicit serializable state surface of the
// dynamic cache and the static store. See DESIGN.md section 10 for the
// schema and compatibility rules. Entries are sorted slices, never maps,
// so the serialized form is deterministic.

import (
	"fmt"
	"math"
	"sort"

	"precinct/internal/workload"
)

// CacheState is the serializable state of one Cache. Capacity and policy
// are configuration, re-derived by the restore path from the Scenario,
// not snapshot state.
type CacheState struct {
	Inflate   float64 // greedy-dual aging floor L
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   []Entry // sorted by Key
}

// StateSnapshot captures the cache's mutable state.
func (c *Cache) StateSnapshot() CacheState {
	return CacheState{
		Inflate:   c.inflate,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.Entries(),
	}
}

// RestoreState overwrites the cache's contents and counters from a
// snapshot. The occupancy accumulator is recomputed from the entries and
// validated against the configured capacity, so a corrupt snapshot can
// never produce a cache that violates the occupancy invariant.
func (c *Cache) RestoreState(st CacheState) error {
	if math.IsNaN(st.Inflate) || st.Inflate < 0 {
		return fmt.Errorf("cache: snapshot has invalid aging floor L=%g", st.Inflate)
	}
	entries := make(map[workload.Key]*Entry, len(st.Entries))
	var used int64
	for i := range st.Entries {
		e := st.Entries[i]
		if e.Size <= 0 {
			return fmt.Errorf("cache: snapshot entry %d has non-positive size %d", e.Key, e.Size)
		}
		if _, dup := entries[e.Key]; dup {
			return fmt.Errorf("cache: snapshot has duplicate entry for key %d", e.Key)
		}
		cp := e
		entries[e.Key] = &cp
		used += int64(e.Size)
	}
	if used > c.capacity {
		return fmt.Errorf("cache: snapshot occupancy %d exceeds capacity %d", used, c.capacity)
	}
	c.entries = entries
	c.used = used
	c.inflate = st.Inflate
	c.hits = st.Hits
	c.misses = st.Misses
	c.evictions = st.Evictions
	c.inflateRegressed = false
	// Rebuild the victim index in the snapshot's (sorted) entry order.
	// The heap's internal layout is irrelevant to behavior — victims are
	// popped in (Utility, Key) order regardless — but a deterministic
	// rebuild keeps restored state reproducible.
	c.index.reset(len(st.Entries))
	for i := range st.Entries {
		c.index.push(entries[st.Entries[i].Key])
	}
	return nil
}

// StateSnapshot captures the store's items, sorted by key.
func (s *Store) StateSnapshot() []StoredItem {
	out := make([]StoredItem, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, *it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// RestoreState overwrites the store's contents from a snapshot. An
// empty snapshot restores to the lazy (nil-map) state, so a restored
// large-N run pays for only the stores that actually hold keys.
func (s *Store) RestoreState(items []StoredItem) error {
	s.gen++
	if len(items) == 0 {
		s.items = nil
		return nil
	}
	m := make(map[workload.Key]*StoredItem, len(items))
	for i := range items {
		it := items[i]
		if it.Size <= 0 {
			return fmt.Errorf("cache: snapshot stored item %d has non-positive size %d", it.Key, it.Size)
		}
		if it.ReplicaRank < 0 {
			return fmt.Errorf("cache: snapshot stored item %d has negative replica rank %d", it.Key, it.ReplicaRank)
		}
		if _, dup := m[it.Key]; dup {
			return fmt.Errorf("cache: snapshot has duplicate stored item for key %d", it.Key)
		}
		cp := it
		m[it.Key] = &cp
	}
	s.items = m
	return nil
}
