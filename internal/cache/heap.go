package cache

// Victim heap: a binary min-heap over the cache's slots ordered by
// (Utility, Key). Because keys are unique, that order is a strict total
// order, so the heap minimum is always exactly the entry a linear scan
// for the minimum would pick — the heap changes the cost of finding the
// victim from O(n) to O(log n) without changing which entry is the
// victim. DESIGN.md section 11 gives the full equivalence argument;
// TestHeapLinearOpEquivalence holds min() to that scan after every
// operation of fuzzed streams.
//
// The heap holds slot indices, and each slot keeps its own heap
// position inline, so reordering needs no key → position map.

import "fmt"

// victimLess is the eviction order: minimum utility first, ties broken
// to the smaller key.
func victimLess(a, b *Entry) bool {
	return a.Utility < b.Utility ||
		(a.Utility == b.Utility && a.Key < b.Key)
}

// less orders heap positions i and j by their slots' entries.
func (c *Cache) less(i, j int) bool {
	return victimLess(&c.items[c.heap[i]].Entry, &c.items[c.heap[j]].Entry)
}

// min returns the current victim without removing it, or nil when empty.
func (c *Cache) min() *Entry {
	if len(c.heap) == 0 {
		return nil
	}
	return &c.items[c.heap[0]].Entry
}

// push adds slot s, which is not yet in the heap.
func (c *Cache) push(s int32) {
	c.heap = append(c.heap, s)
	c.items[s].heapPos = int32(len(c.heap) - 1)
	c.up(len(c.heap) - 1)
}

// heapRemove drops heap position i, moving the last position into it.
func (c *Cache) heapRemove(i int32) {
	last := len(c.heap) - 1
	c.swap(int(i), last)
	c.heap = c.heap[:last]
	if int(i) < last {
		c.fix(i)
	}
}

// fix restores the heap order around position i after its slot's
// Utility changed.
func (c *Cache) fix(i int32) {
	if !c.down(int(i)) {
		c.up(int(i))
	}
}

func (c *Cache) swap(i, j int) {
	if i == j {
		return
	}
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.items[c.heap[i]].heapPos = int32(i)
	c.items[c.heap[j]].heapPos = int32(j)
}

// up sifts position i toward the root.
func (c *Cache) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.swap(i, parent)
		i = parent
	}
}

// down sifts position i toward the leaves; it reports whether i moved.
func (c *Cache) down(i int) bool {
	start := i
	n := len(c.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && c.less(right, left) {
			least = right
		}
		if !c.less(least, i) {
			break
		}
		c.swap(i, least)
		i = least
	}
	return i > start
}

// checkIndex validates the key index and the heap against the slots:
// same membership, every key and heap position pointing back at its
// slot, and the heap order invariant at every edge. It is wired into
// Cache.CheckInvariants, so the whole runtime invariant suite (DESIGN.md
// section 9) sweeps it.
func (c *Cache) checkIndex() error {
	if len(c.heap) != len(c.items) || len(c.keys) != len(c.items) {
		return fmt.Errorf("cache: victim heap tracks %d slots and the key index %d, cache holds %d",
			len(c.heap), len(c.keys), len(c.items))
	}
	for i := range c.items {
		s := &c.items[i]
		if j, ok := c.keys[s.Key]; !ok || int(j) != i {
			return fmt.Errorf("cache: key index says %d (present %v) for key %d at slot %d", j, ok, s.Key, i)
		}
		if p := s.heapPos; p < 0 || int(p) >= len(c.heap) || int(c.heap[p]) != i {
			return fmt.Errorf("cache: slot %d (key %d) records heap position %d, which does not hold it", i, s.Key, p)
		}
	}
	for p := 1; p < len(c.heap); p++ {
		if parent := (p - 1) / 2; c.less(p, parent) {
			return fmt.Errorf("cache: victim heap order violated at position %d (key %d under key %d)",
				p, c.items[c.heap[p]].Key, c.items[c.heap[parent]].Key)
		}
	}
	return nil
}
