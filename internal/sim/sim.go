// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel's reference mode is single-threaded: given the same seed and
// the same sequence of scheduled callbacks, a run is bit-for-bit
// reproducible. Parallelism lives one level up, in two forms: independent
// scenario replications run on a worker pool (see the root precinct
// package), and a single large run can be sharded across cores by giving
// each shard its own Scheduler and synchronizing them at a conservative
// lookahead horizon (see the root package's parallel runner).
//
// Sharded execution preserves the reference mode's results exactly
// because every event carries a canonical key (time, creator, cseq) that
// is assigned identically in both modes: `creator` is the execution
// context (peer id, or -1 for network-global work) of the event that
// scheduled it, and `cseq` is drawn from a per-creator counter. A
// creator's events fire on a single shard (or on the coordinator, for
// creator -1), so the counter draw order — and therefore every key — is
// independent of how the event loop is partitioned.
package sim

import (
	"fmt"
	"math/rand"
)

// Handle identifies a scheduled event so it can be cancelled before it
// fires: the event's slot in the scheduler's slab plus the slot's
// generation when the event was scheduled, so a handle kept after its
// event fired or was cancelled matches nothing, even once the slot holds
// a later event. The zero Handle is invalid.
type Handle uint64

// EventKey is the canonical total order over events: (Time, Creator,
// Cseq). It is identical in sequential and sharded runs, which is what
// lets a sharded run's merged trace reproduce the sequential one.
type EventKey struct {
	Time    float64
	Creator int32
	Cseq    uint64
}

// Less orders keys canonically.
func (k EventKey) Less(o EventKey) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	if k.Creator != o.Creator {
		return k.Creator < o.Creator
	}
	return k.Cseq < o.Cseq
}

// Counters hands out per-creator sequence numbers. Index creator+1
// (creator -1, the network-global context, uses slot 0). In sharded
// runs one Counters instance is shared by every shard scheduler; this is
// safe without locks because creator c's counter is only drawn while
// c's events execute, which happens on exactly one goroutine at a time
// (c's owning shard during a window, or the coordinator at a barrier).
type Counters struct {
	c []uint64
}

// NewCounters returns counters pre-sized for creators -1..n-1. Sharded
// runs must pre-size (growth would race); sequential runs may pass 0
// and let the slice grow on demand.
func NewCounters(n int) *Counters {
	return &Counters{c: make([]uint64, n+1)}
}

func (k *Counters) next(creator int32) uint64 {
	idx := int(creator) + 1
	if idx >= len(k.c) {
		grown := make([]uint64, idx+1)
		copy(grown, k.c)
		k.c = grown
	}
	v := k.c[idx]
	k.c[idx]++
	return v
}

// Scheduler owns the simulation clock and the pending event queue.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	// The pending events (see queue.go): two 4-ary heaps of inline keys,
	// the slab of event boxes their entries point into, and the per-slot
	// bookkeeping behind Handle.
	queue  []entry
	gqueue []entry // global (execAs -1) events, when splitGlobal
	chunks []*[chunkSize]box
	meta   []slotMeta
	// fanExtra is the number of pending events that have no heap entry of
	// their own: every unfired member of a pending fan but its next one.
	fanExtra int

	now       float64
	executed  uint64
	cancelled uint64
	// pushes counts heap entries pushed, fanFired events fired as fan
	// members (of which only a fan's first paid a push, its last a pop).
	pushes   uint64
	fanFired uint64

	// cur is the execution context of the in-flight event: the peer id
	// whose callback is running, or -1 outside callbacks and for
	// network-global work. New events record it as their creator and
	// inherit it as their default execAs.
	cur      int32
	counters *Counters

	// splitGlobal routes execAs -1 events to a separate queue that the
	// shard worker's RunBefore never touches; the parallel coordinator
	// executes them single-threaded at barriers. Sequential schedulers
	// leave it off and pay nothing for the second queue.
	splitGlobal bool

	// free is the slot freelist: the slots of popped and cancelled events
	// are returned here and scheduling takes them back out, most recent
	// first, so the steady-state Schedule→fire→recycle cycle allocates
	// nothing and keeps reusing the same few warm boxes.
	free []int32

	// execCounts, when non-nil, tallies fired events per execution
	// context at index execAs+1 (index 0 is network-global work). No run
	// turns it on: it is a test oracle (see CountExec), nil — and the
	// fire path pays one predictable branch — everywhere else.
	execCounts []uint64
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return NewSchedulerWithCounters(NewCounters(0))
}

// NewSchedulerWithCounters returns an empty scheduler drawing cseq
// numbers from the given (possibly shared) counter set.
func NewSchedulerWithCounters(k *Counters) *Scheduler {
	return &Scheduler{cur: -1, counters: k}
}

// Counters exposes the scheduler's counter set so shard schedulers can
// share the primary's.
func (s *Scheduler) Counters() *Counters { return s.counters }

// SplitGlobal enables the two-queue mode for shard schedulers: events
// with execAs -1 go to a separate queue for the coordinator. Must be
// called before any event is scheduled.
func (s *Scheduler) SplitGlobal() {
	if len(s.queue) > 0 || len(s.gqueue) > 0 {
		panic("sim: SplitGlobal after events were scheduled")
	}
	s.splitGlobal = true
}

// Now returns the current simulation time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Len returns the number of pending events, a fan counting once per
// unfired member.
func (s *Scheduler) Len() int { return len(s.queue) + len(s.gqueue) + s.fanExtra }

// Executed returns the number of events that have fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// HeapPushes returns the number of heap entries pushed so far: one per
// scheduled event, but one per fan.
func (s *Scheduler) HeapPushes() uint64 { return s.pushes }

// FanFired returns the number of events that fired as members of a fan.
func (s *Scheduler) FanFired() uint64 { return s.fanFired }

// Cur returns the current execution context (-1 outside callbacks).
func (s *Scheduler) Cur() int { return int(s.cur) }

// CountExec enables per-context fired-event tallies for n peer
// contexts (plus the -1 global context at index 0). Counting starts
// from the call; events fired earlier are not represented. No run calls
// it: it is a test oracle, read by node's
// TestNoReplicationFailsAfterHomeRegionCrash to pin that a request's
// timeouts run under the requester rather than as global work, and by
// the queue tests against their reference model.
func (s *Scheduler) CountExec(n int) { s.execCounts = make([]uint64, n+1) }

// ExecCounts returns the per-context tallies enabled by CountExec
// (index execAs+1), or nil when counting is off.
func (s *Scheduler) ExecCounts() []uint64 { return s.execCounts }

// CheckConsistency verifies the scheduler's internal bookkeeping: both
// heaps satisfy the 4-ary heap property (no entry precedes its parent at
// (i-1)/4), every entry's slot records the entry's own position and
// holds exactly one callback, global events sit in the global heap and
// nowhere else, every fan entry carries its next unfired member's key
// (see checkFan) and the fans' remaining members add up to the count Len
// relies on, no pending event is scheduled before the current clock,
// every freelist slot is cleared and not pending, and the slab is exactly
// the pending slots plus the free ones. It is O(n) over the slab and
// intended for invariant sweeps, not hot paths.
func (s *Scheduler) CheckConsistency() error {
	fanExtra := 0
	for qi, q := range [2][]entry{s.queue, s.gqueue} {
		for i := range q {
			e := &q[i]
			if e.slot < 0 || int(e.slot) >= len(s.meta) {
				return fmt.Errorf("sim: heap entry %d names slot %d outside the slab of %d", i, e.slot, len(s.meta))
			}
			if pos := s.meta[e.slot].pos; int(pos) != i {
				return fmt.Errorf("sim: slot %d records heap position %d, its entry is at %d", e.slot, pos, i)
			}
			b := s.box(e.slot)
			if (b.fn == nil) == (b.fnCtx == nil) {
				return fmt.Errorf("sim: pending slot %d does not hold exactly one callback", e.slot)
			}
			if global := s.splitGlobal && b.execAs < 0; global != (qi == 1) {
				return fmt.Errorf("sim: slot %d (execAs %d) is queued in the wrong heap", e.slot, b.execAs)
			}
			if b.fan {
				f, err := s.checkFan(e, b)
				if err != nil {
					return err
				}
				fanExtra += len(f.members) - f.next - 1
			}
			if e.time < s.now {
				return fmt.Errorf("sim: pending slot %d at t=%v is before now=%v", e.slot, e.time, s.now)
			}
			if i > 0 && e.before(&q[(i-1)>>2]) {
				return fmt.Errorf("sim: heap property violated at index %d (parent %d)", i, (i-1)>>2)
			}
		}
	}
	if fanExtra != s.fanExtra {
		return fmt.Errorf("sim: pending fans hold %d members beyond their entries, the count is %d", fanExtra, s.fanExtra)
	}
	// Every heap entry's slot is marked pending, at the entry's own index
	// in the one heap its execAs selects (above), so entries and pending
	// slots pair up one to one as long as no other slot claims to be
	// pending.
	pending := 0
	for _, m := range s.meta {
		if m.pos >= 0 {
			pending++
		}
	}
	if entries := len(s.queue) + len(s.gqueue); pending != entries {
		return fmt.Errorf("sim: %d slots are marked pending but the heaps hold %d entries", pending, entries)
	}
	for i, slot := range s.free {
		if slot < 0 || int(slot) >= len(s.meta) {
			return fmt.Errorf("sim: freelist entry %d names slot %d outside the slab of %d", i, slot, len(s.meta))
		}
		if s.meta[slot].pos >= 0 {
			return fmt.Errorf("sim: freelist slot %d is still pending", slot)
		}
		if b := s.box(slot); b.fn != nil || b.fnCtx != nil || b.ctx != nil || b.fan {
			return fmt.Errorf("sim: freelist slot %d retains a callback, context or fan mark", slot)
		}
	}
	if pending+len(s.free) != len(s.meta) {
		return fmt.Errorf("sim: slab of %d slots, %d pending + %d free: a slot is lost or listed twice",
			len(s.meta), pending, len(s.free))
	}
	return nil
}

// checkFan verifies a fan entry against its Fan: the box holds a *Fan,
// the cursor names an unfired member, the entry's cseq and
// the box's execAs are that member's, and the unfired members' cseqs
// ascend, so every advance moves the entry's key forward.
func (s *Scheduler) checkFan(e *entry, b *box) (*Fan, error) {
	f, ok := b.ctx.(*Fan)
	if !ok || b.fnCtx == nil {
		return nil, fmt.Errorf("sim: fan slot %d does not hold a *Fan and a context callback", e.slot)
	}
	if f.next < 0 || f.next >= len(f.members) {
		return nil, fmt.Errorf("sim: fan slot %d: cursor %d outside its %d members", e.slot, f.next, len(f.members))
	}
	if m := f.members[f.next]; e.cseq != m.Cseq || b.execAs != m.ExecAs {
		return nil, fmt.Errorf("sim: fan slot %d is keyed (cseq %d, execAs %d), its next member is (%d, %d)",
			e.slot, e.cseq, b.execAs, m.Cseq, m.ExecAs)
	}
	if err := s.checkMembers(f, f.next); err != nil {
		return nil, fmt.Errorf("sim: fan slot %d: %w", e.slot, err)
	}
	return f, nil
}

// checkMembers verifies that f's members from index `from` on ascend in
// cseq and, under SplitGlobal, are local work: a fan lives in one heap.
func (s *Scheduler) checkMembers(f *Fan, from int) error {
	for i := from; i < len(f.members); i++ {
		m := f.members[i]
		if i > from && m.Cseq <= f.members[i-1].Cseq {
			return fmt.Errorf("fan member %d's cseq %d does not exceed its predecessor's %d", i, m.Cseq, f.members[i-1].Cseq)
		}
		if s.splitGlobal && m.ExecAs < 0 {
			return fmt.Errorf("fan member %d is global work under SplitGlobal", i)
		}
	}
	return nil
}

// queueOf returns the heap an event with the given execAs lives in.
func (s *Scheduler) queueOf(execAs int32) *[]entry {
	if s.splitGlobal && execAs < 0 {
		return &s.gqueue
	}
	return &s.queue
}

// schedule queues an event at absolute time t under a canonical key
// freshly drawn in the current execution context. The caller fills the
// returned (cleared) box with the callback before control returns to
// the event loop.
func (s *Scheduler) schedule(t float64, execAs int32) (*box, Handle) {
	return s.scheduleKeyed(t, execAs, s.cur, s.counters.next(s.cur))
}

// scheduleKeyed is schedule under a given canonical key (freshly drawn,
// or reserved on another shard).
func (s *Scheduler) scheduleKeyed(t float64, execAs, creator int32, cseq uint64) (*box, Handle) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	slot := s.takeSlot()
	b := s.box(slot)
	b.execAs = execAs
	s.heapPush(s.queueOf(execAs), entry{time: t, cseq: cseq, creator: creator, slot: slot})
	return b, makeHandle(slot, s.meta[slot].gen)
}

// At schedules fn to run at absolute simulation time t, executing under
// the scheduling context (the event is "more work for whoever is running
// now"). Scheduling in the past panics: it would silently reorder
// causality and every such call is a protocol bug.
func (s *Scheduler) At(t float64, fn func()) Handle {
	return s.AtAs(t, fn, int(s.cur))
}

// AtAs is At with an explicit execution context for the callback: the
// peer that owns a recurring process, or -1 for network-global work
// (churn, faults, the warmup meter reset) that a sharded run executes
// single-threaded at barriers.
func (s *Scheduler) AtAs(t float64, fn func(), execAs int) Handle {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	b, h := s.schedule(t, int32(execAs))
	b.fn = fn
	return h
}

// AtCtxAs schedules fn(ctx) at absolute time t. Unlike At, the callback
// is a plain function pointer plus an explicit context value, so hot
// paths that would otherwise allocate a capturing closure per event (one
// per radio frame delivery) can pass a pooled context struct instead and
// keep the whole Schedule→fire→recycle cycle allocation-free. execAs is
// the execution context of the callback: the peer whose state it will
// touch (a frame's receiver), or -1 for network-global work. Sharded
// runs use execAs to route the event to its owner's shard.
func (s *Scheduler) AtCtxAs(t float64, fn func(any), ctx any, execAs int) Handle {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	b, h := s.schedule(t, int32(execAs))
	b.fnCtx = fn
	b.ctx = ctx
	return h
}

// After schedules fn to run d seconds from now.
func (s *Scheduler) After(d float64, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AfterCtxAs schedules fn(ctx) d seconds from now under an explicit
// execution context (see AtCtxAs).
func (s *Scheduler) AfterCtxAs(d float64, fn func(any), ctx any, execAs int) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtCtxAs(s.now+d, fn, ctx, execAs)
}

// ReserveKey draws a canonical key under the current context without
// scheduling anything. A shard uses it for a cross-shard delivery: the
// key is drawn on the sender's shard — exactly when the sequential run
// would draw it — then travels with the frame and is attached on the
// receiver's shard via InjectAtCtx.
func (s *Scheduler) ReserveKey() (creator int32, cseq uint64) {
	return s.cur, s.counters.next(s.cur)
}

// InjectAtCtx schedules fn(ctx) at absolute time t with an explicit,
// previously reserved canonical key. The barrier protocol guarantees t
// is not in this scheduler's past; scheduling in the past still panics,
// as the causality backstop.
func (s *Scheduler) InjectAtCtx(t float64, fn func(any), ctx any, execAs int, creator int32, cseq uint64) Handle {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	b, h := s.scheduleKeyed(t, int32(execAs), creator, cseq)
	b.fnCtx = fn
	b.ctx = ctx
	return h
}

// AtFan schedules fn(f.Ctx) once per member of f at absolute time t: the
// same firings, in the same places of the canonical order, as one
// InjectAtCtx(t, fn, f.Ctx, m.ExecAs, creator, m.Cseq) per member m, for
// one heap entry and one slot. The members' keys were drawn (ReserveKey)
// under creator, in member order, so their cseqs ascend. Under
// SplitGlobal every member must be local work (ExecAs >= 0): a fan lives
// in one heap. See Fan for who owns f and for how long.
func (s *Scheduler) AtFan(t float64, creator int32, fn func(any), f *Fan) {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	if len(f.members) == 0 {
		panic("sim: scheduling a fan without members")
	}
	if err := s.checkMembers(f, 0); err != nil {
		panic("sim: " + err.Error())
	}
	f.next = 0
	first := f.members[0]
	b, _ := s.scheduleKeyed(t, first.ExecAs, creator, first.Cseq)
	b.fnCtx = fn
	b.ctx = f
	b.fan = true
	s.fanExtra += len(f.members) - 1
}

// Cancel removes a pending event. It returns false when the event already
// fired or was cancelled — including when its slot has since been handed
// to another event, which the handle's generation tells apart — and for
// the zero Handle.
func (s *Scheduler) Cancel(h Handle) bool {
	slot := h.slotOf()
	if slot < 0 || int(slot) >= len(s.meta) {
		return false
	}
	m := s.meta[slot]
	if m.gen != h.genOf() || m.pos < 0 {
		return false
	}
	s.heapRemove(s.queueOf(s.box(slot).execAs), int(m.pos))
	s.cancelled++
	s.releaseSlot(slot)
	return true
}

// advanceFan takes the firing member off the fan at the head of *q and
// returns the context its callback runs with. While members remain, the
// entry stays where it is under its next member's key — a larger key, so
// it can only need to move down, and normally does not move at all: the
// root's children are due later. The last member removes the entry and
// releases the slot like any other event.
func (s *Scheduler) advanceFan(q *[]entry, e entry, b *box) any {
	f := b.ctx.(*Fan)
	f.next++
	s.fanFired++
	if f.next < len(f.members) {
		m := f.members[f.next]
		e.cseq = m.Cseq
		b.execAs = m.ExecAs
		s.fanExtra--
		s.siftDown(*q, 0, e)
	} else {
		s.heapRemove(q, 0)
		s.releaseSlot(e.slot)
	}
	return f.Ctx
}

// fireHead fires the head of the heap *q with the clock at its due time.
// The callback fields are copied out and the entry popped and its slot
// released (or, for a fan, moved on to its next member) BEFORE the
// callback executes, so a callback that schedules new events reuses the
// box it just vacated and sees a consistent queue. The execution context
// is the event's execAs for the duration of the callback.
func (s *Scheduler) fireHead(q *[]entry) {
	e := (*q)[0]
	s.now = e.time
	b := s.box(e.slot)
	fn, fnCtx, ctx, execAs := b.fn, b.fnCtx, b.ctx, b.execAs
	if b.fan {
		ctx = s.advanceFan(q, e, b)
	} else {
		s.heapRemove(q, 0)
		s.releaseSlot(e.slot)
	}
	s.cur = execAs
	if s.execCounts != nil {
		if i := int(execAs) + 1; i >= 0 && i < len(s.execCounts) {
			s.execCounts[i]++
		}
	}
	if fn != nil {
		fn()
	} else {
		fnCtx(ctx)
	}
	s.cur = -1
	s.executed++
}

// minQueue returns the heap whose head is the canonically-least pending
// event across both queues, or nil when nothing is pending.
func (s *Scheduler) minQueue() *[]entry {
	switch {
	case len(s.gqueue) == 0:
		if len(s.queue) == 0 {
			return nil
		}
		return &s.queue
	case len(s.queue) == 0 || s.gqueue[0].before(&s.queue[0]):
		return &s.gqueue
	default:
		return &s.queue
	}
}

// Run executes events in canonical order until the queue drains or the
// clock would pass `until`. Events scheduled exactly at `until` still run.
// It returns the number of events executed by this call.
func (s *Scheduler) Run(until float64) uint64 {
	var n uint64
	for {
		q := s.minQueue()
		if q == nil || (*q)[0].time > until {
			break
		}
		s.fireHead(q)
		n++
	}
	// Advance the clock to the horizon so subsequent scheduling is
	// relative to the end of the observed window.
	if s.now < until {
		s.now = until
	}
	return n
}

// Step executes exactly one event if the next one is due at or before
// `until`, and reports whether an event fired. The clock is NOT advanced
// to the horizon when the queue is ahead of it — Step exists for
// callers that need to observe state between individual events.
func (s *Scheduler) Step(until float64) bool {
	q := s.minQueue()
	if q == nil || (*q)[0].time > until {
		return false
	}
	s.fireHead(q)
	return true
}

// RunAll executes events until the queue is empty. Callbacks that keep
// rescheduling themselves make this non-terminating; callers that inject
// recurring processes should use Run with a horizon instead.
func (s *Scheduler) RunAll() uint64 {
	var n uint64
	for q := s.minQueue(); q != nil; q = s.minQueue() {
		s.fireHead(q)
		n++
	}
	return n
}

// RunBefore executes local-queue events with time strictly below the
// horizon h, in canonical order, and returns the count. It is the shard
// worker's inner loop: global-queue events are left for the coordinator
// (the barrier protocol guarantees none is due before h), and the clock
// is NOT advanced to h — the next window's bounds are recomputed from
// queue heads, so the clock only ever reflects fired events.
func (s *Scheduler) RunBefore(h float64) uint64 {
	var n uint64
	for len(s.queue) > 0 && s.queue[0].time < h {
		s.fireHead(&s.queue)
		n++
	}
	return n
}

// StepAt fires the canonically-least pending event if it is due exactly
// at time t, reporting whether one fired. The coordinator drains
// same-time barrier batches with it, interleaving shards in canonical
// order.
func (s *Scheduler) StepAt(t float64) bool {
	q := s.minQueue()
	if q == nil || (*q)[0].time != t {
		return false
	}
	s.fireHead(q)
	return true
}

// PeekLocal returns the due time of the earliest local-queue event.
func (s *Scheduler) PeekLocal() (float64, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].time, true
}

// PeekGlobal returns the due time of the earliest global-queue event.
func (s *Scheduler) PeekGlobal() (float64, bool) {
	if len(s.gqueue) == 0 {
		return 0, false
	}
	return s.gqueue[0].time, true
}

// PeekKey returns the canonical key of the earliest pending event
// across both queues.
func (s *Scheduler) PeekKey() (EventKey, bool) {
	q := s.minQueue()
	if q == nil {
		return EventKey{}, false
	}
	return (*q)[0].key(), true
}

// AdvanceTo moves the clock forward to t without firing anything; the
// parallel runner uses it to land every shard clock on the common end
// time after the window loop drains. Moving backwards panics.
func (s *Scheduler) AdvanceTo(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, s.now))
	}
	s.now = t
}

// RNG derives a deterministic random stream for a named component from
// the root seed and the name alone. A stream therefore does not depend
// on which other streams exist or on the order components ask for them,
// which keeps scenario runs reproducible as the codebase grows. RNG
// keeps no record of the streams it hands out: each component asks once
// for its name and owns the stream it gets.
type RNG struct {
	seed int64
}

// NewRNG returns a stream factory rooted at seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// Stream returns a new *rand.Rand for the component name, seeded by the
// root seed mixed with an FNV-1a hash of the name. Two calls with one
// name return two streams in the same state, not one shared stream.
func (r *RNG) Stream(name string) *rand.Rand {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	mixed := r.seed ^ int64(h)
	if mixed == 0 {
		mixed = int64(prime64)
	}
	return rand.New(NewSource(mixed))
}
