package sim

// The pending-event queue: a 4-ary min-heap of inline keys over a slab of
// event boxes (DESIGN.md section 12a).
//
// A heap entry carries the whole canonical key (time, creator, cseq) next
// to the slot of its box, so ordering never leaves the heap array: a
// sift compares 24-byte values that sit side by side, where the previous
// container/heap queue chased one pointer per operand through an
// interface call. Four children per node halve the depth of a binary
// heap (8 levels at 35 000 pending events instead of 16) and a node's
// children share two cache lines, so a pop touches about half the memory
// for the same number of comparisons. Canonical keys are unique, so the
// pop order is the sorted order of the keys whatever the heap's shape —
// replacing the heap cannot reorder a run.
//
// Everything the comparator does not read lives in a box: the callback,
// its context and its execution context. Boxes sit in fixed-size
// chunks addressed by slot and never move; the per-slot bookkeeping that
// sifts write (heap position) and Cancel probes (generation) is a
// separate flat array, eight bytes a slot, which stays cache-resident
// when the boxes do not.
//
// A fan (see Fan) is a run of events under one entry and one box. The
// entry's key is always the key of the fan's next unfired member, which
// no other pending key equals, so the heap still orders unique keys and
// the pop order is still their sorted order: the members fire where k
// single events would have, and whatever sorts between two of them fires
// between them.

// entry is one pending event as the heap orders it.
type entry struct {
	time    float64
	cseq    uint64
	creator int32
	slot    int32
}

// before reports whether a precedes b in canonical (time, creator, cseq)
// order — the same order as EventKey.Less.
func (a *entry) before(b *entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.creator != b.creator {
		return a.creator < b.creator
	}
	return a.cseq < b.cseq
}

func (a *entry) key() EventKey {
	return EventKey{Time: a.time, Creator: a.creator, Cseq: a.cseq}
}

// box is the part of a pending event that ordering never reads. Exactly
// one of fn and fnCtx is set: fn is the closure form, fnCtx+ctx the
// allocation-free form used by hot paths (see AtCtxAs). In a fan's box ctx
// is the *Fan, fnCtx is called with the fan's Ctx, and execAs is the next
// unfired member's.
type box struct {
	fn     func()
	fnCtx  func(any)
	ctx    any
	execAs int32 // execution context the callback runs under
	fan    bool  // sits in execAs's padding: the box is 40 bytes either way
}

// FanMember is one event of a fan: the cseq of its canonical key and the
// execution context its callback runs under.
type FanMember struct {
	Cseq   uint64
	ExecAs int32
}

// Fan is a run of events that share a due time, a creator, a callback
// and a context, and differ in cseq and execution context — a broadcast's
// receptions. Scheduled with AtFan it occupies one heap entry and one
// slot however many members it has, where the same events scheduled one
// by one would each pay a push and a pop through the whole heap.
//
// The caller owns the Fan and may pool it: fill it with Reset and Add,
// hand it to AtFan, and leave it alone until Done reports that the last
// member has fired (the callback of the last member may already refill
// it). A fan has no Handle; its members cannot be cancelled.
type Fan struct {
	// Ctx is passed to the callback on every member's firing.
	Ctx any

	members []FanMember
	next    int // index of the next unfired member
}

// Reset empties the member list, keeping its storage.
func (f *Fan) Reset() {
	f.members = f.members[:0]
	f.next = 0
}

// Add appends a member. Members are added in ascending cseq order, the
// order keys are drawn in.
func (f *Fan) Add(cseq uint64, execAs int) {
	f.members = append(f.members, FanMember{Cseq: cseq, ExecAs: int32(execAs)})
}

// Len returns the number of members.
func (f *Fan) Len() int { return len(f.members) }

// Fired returns the member whose callback is running (or ran last).
func (f *Fan) Fired() FanMember { return f.members[f.next-1] }

// Done reports whether every member has fired.
func (f *Fan) Done() bool { return f.next == len(f.members) }

// slotMeta is the per-slot bookkeeping: where the slot's entry sits in
// its heap (-1 while the slot is not pending) and how many times the
// slot has been released. A Handle names (slot, gen), so a handle kept
// past its event's firing or cancellation stops matching the moment the
// slot is released, whoever occupies it next.
type slotMeta struct {
	pos int32
	gen uint32
}

const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

func makeHandle(slot int32, gen uint32) Handle {
	return Handle(uint64(gen)<<32 | uint64(uint32(slot)+1))
}

// slotOf decodes a handle's slot; the zero Handle yields -1.
func (h Handle) slotOf() int32 { return int32(uint32(h)) - 1 }

func (h Handle) genOf() uint32 { return uint32(h >> 32) }

// box returns the slot's event box.
func (s *Scheduler) box(slot int32) *box {
	return &s.chunks[slot>>chunkShift][slot&chunkMask]
}

// takeSlot hands out a free slot: the most recently released one, or a
// never-used one at the end of the slab.
func (s *Scheduler) takeSlot() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	slot := int32(len(s.meta))
	s.meta = append(s.meta, slotMeta{pos: -1})
	if int(slot>>chunkShift) == len(s.chunks) {
		s.chunks = append(s.chunks, new([chunkSize]box))
	}
	return slot
}

// releaseSlot retires a popped or cancelled event's box. The box is
// cleared so the slab never pins a payload, and the generation is bumped so every handle to the
// previous incarnation is dead for good.
func (s *Scheduler) releaseSlot(slot int32) {
	*s.box(slot) = box{}
	s.meta[slot].gen++
	s.free = append(s.free, slot)
}

// heapPush inserts e into the heap *q.
func (s *Scheduler) heapPush(q *[]entry, e entry) {
	s.pushes++
	*q = append(*q, e)
	s.siftUp(*q, len(*q)-1, e)
}

// heapRemove deletes the entry at index i of the heap *q and marks its
// slot as no longer pending.
func (s *Scheduler) heapRemove(q *[]entry, i int) {
	h := *q
	s.meta[h[i].slot].pos = -1
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	// The displaced last entry belongs at or below i when i is the root
	// (every pop), and may belong above it after a mid-heap cancel.
	if i > 0 && last.before(&h[(i-1)>>2]) {
		s.siftUp(h, i, last)
		return
	}
	s.siftDown(h, i, last)
}

// siftUp places e, starting from the hole at index i, by moving smaller
// ancestors' holes up. The parent of node i is (i-1)/4.
func (s *Scheduler) siftUp(h []entry, i int, e entry) {
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		s.meta[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = e
	s.meta[e.slot].pos = int32(i)
}

// siftDown places e, starting from the hole at index i, by pulling the
// least of each node's (up to four) children up while it precedes e.
func (s *Scheduler) siftDown(h []entry, i int, e entry) {
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		s.meta[h[i].slot].pos = int32(i)
		i = m
	}
	h[i] = e
	s.meta[e.slot].pos = int32(i)
}
