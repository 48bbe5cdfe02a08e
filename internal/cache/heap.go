package cache

// Victim index: a binary min-heap over the cache's entries ordered by
// (Utility, Key). Because keys are unique, that order is a strict total
// order, so the heap minimum is always exactly the entry a linear scan
// for the minimum would pick — the heap changes the cost of finding the
// victim from O(n) to O(log n) without changing which entry is the
// victim. DESIGN.md section 11 gives the full equivalence argument;
// TestHeapLinearOpEquivalence holds min() to that scan after every
// operation of fuzzed streams.
//
// Entry positions live in a side map rather than in Entry itself, so the
// public Entry struct carries no index state.

import (
	"fmt"

	"precinct/internal/workload"
)

// victimLess is the eviction order: minimum utility first, ties broken
// to the smaller key.
func victimLess(a, b *Entry) bool {
	return a.Utility < b.Utility ||
		(a.Utility == b.Utility && a.Key < b.Key)
}

// victimIndex is the heap plus the key → heap-position map.
type victimIndex struct {
	heap []*Entry
	pos  map[workload.Key]int
}

func newVictimIndex() *victimIndex {
	return &victimIndex{pos: make(map[workload.Key]int)}
}

// min returns the current victim without removing it, or nil when empty.
func (v *victimIndex) min() *Entry {
	if len(v.heap) == 0 {
		return nil
	}
	return v.heap[0]
}

// push adds an entry that is not yet indexed.
func (v *victimIndex) push(e *Entry) {
	v.heap = append(v.heap, e)
	v.pos[e.Key] = len(v.heap) - 1
	v.up(len(v.heap) - 1)
}

// remove drops the entry for a key, if indexed.
func (v *victimIndex) remove(k workload.Key) {
	i, ok := v.pos[k]
	if !ok {
		return
	}
	last := len(v.heap) - 1
	v.swap(i, last)
	v.heap[last] = nil // keep the backing array from retaining the entry
	v.heap = v.heap[:last]
	delete(v.pos, k)
	if i < last {
		if !v.down(i) {
			v.up(i)
		}
	}
}

// fix restores the heap order around a key whose Utility changed.
func (v *victimIndex) fix(k workload.Key) {
	i, ok := v.pos[k]
	if !ok {
		return
	}
	if !v.down(i) {
		v.up(i)
	}
}

func (v *victimIndex) swap(i, j int) {
	if i == j {
		return
	}
	v.heap[i], v.heap[j] = v.heap[j], v.heap[i]
	v.pos[v.heap[i].Key] = i
	v.pos[v.heap[j].Key] = j
}

// up sifts index i toward the root.
func (v *victimIndex) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !victimLess(v.heap[i], v.heap[parent]) {
			break
		}
		v.swap(i, parent)
		i = parent
	}
}

// down sifts index i toward the leaves; it reports whether i moved.
func (v *victimIndex) down(i int) bool {
	start := i
	n := len(v.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && victimLess(v.heap[right], v.heap[left]) {
			least = right
		}
		if !victimLess(v.heap[least], v.heap[i]) {
			break
		}
		v.swap(i, least)
		i = least
	}
	return i > start
}

// check validates the index against the cache's entry map: same
// membership, positions consistent, and the heap order invariant at
// every edge. It is wired into Cache.CheckInvariants, so the whole
// runtime invariant suite (DESIGN.md section 9) sweeps it.
func (v *victimIndex) check(entries map[workload.Key]*Entry) error {
	if len(v.heap) != len(entries) || len(v.pos) != len(entries) {
		return fmt.Errorf("cache: victim index tracks %d/%d entries, cache holds %d",
			len(v.heap), len(v.pos), len(entries))
	}
	for i, e := range v.heap {
		if e == nil {
			return fmt.Errorf("cache: victim index slot %d is nil", i)
		}
		if entries[e.Key] != e {
			return fmt.Errorf("cache: victim index entry %d is not the cached entry", e.Key)
		}
		if v.pos[e.Key] != i {
			return fmt.Errorf("cache: victim index position map says %d for key %d at slot %d",
				v.pos[e.Key], e.Key, i)
		}
		if i > 0 {
			parent := (i - 1) / 2
			if victimLess(e, v.heap[parent]) {
				return fmt.Errorf("cache: victim heap order violated at slot %d (key %d under key %d)",
					i, e.Key, v.heap[parent].Key)
			}
		}
	}
	return nil
}
