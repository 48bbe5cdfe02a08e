package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refEvent and refQueue are the oracle the slab-backed 4-ary heap is
// replayed against: the container/heap queue over boxed events that the
// scheduler used before, reduced to what ordering needs. It lives in test
// code only; the production package does not import container/heap.
type refEvent struct {
	key    EventKey
	id     int // the test's name for the event
	execAs int32
	index  int
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].key.Less(q[j].key) }
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// refSched mirrors the Scheduler's observable contract: per-creator cseq
// counters, two queues under split mode, a pending set keyed by event id.
type refSched struct {
	q       [2]refQueue // 0 local, 1 global (split mode only)
	split   bool
	pending map[int]*refEvent
	cseq    map[int32]uint64
	now     float64
}

func newRefSched(split bool) *refSched {
	return &refSched{split: split, pending: map[int]*refEvent{}, cseq: map[int32]uint64{}}
}

func (r *refSched) reserve(cur int32) (int32, uint64) {
	v := r.cseq[cur]
	r.cseq[cur]++
	return cur, v
}

func (r *refSched) queueOf(execAs int32) *refQueue {
	if r.split && execAs < 0 {
		return &r.q[1]
	}
	return &r.q[0]
}

func (r *refSched) insert(id int, t float64, creator int32, cseq uint64, execAs int32) {
	ev := &refEvent{key: EventKey{t, creator, cseq}, id: id, execAs: execAs}
	heap.Push(r.queueOf(execAs), ev)
	r.pending[id] = ev
}

func (r *refSched) cancel(id int) bool {
	ev, ok := r.pending[id]
	if !ok {
		return false
	}
	delete(r.pending, id)
	heap.Remove(r.queueOf(ev.execAs), ev.index)
	return true
}

// min returns the queue index holding the canonically least event, or -1.
func (r *refSched) min() int {
	best := -1
	for i := range r.q {
		if len(r.q[i]) > 0 && (best < 0 || r.q[i][0].key.Less(r.q[best][0].key)) {
			best = i
		}
	}
	return best
}

func (r *refSched) pop(qi int) *refEvent {
	ev := heap.Pop(&r.q[qi]).(*refEvent)
	delete(r.pending, ev.id)
	r.now = ev.key.Time
	return ev
}

// spawn is a scheduling request made from inside the callback of the
// event named parent.
type spawn struct {
	parent, id int
	dt         float64
	execAs     int32
}

// reservedKey is a canonical key drawn between two members of a fan and
// not yet attached to an event — the position a cross-shard delivery of
// the same broadcast occupies in a sharded run.
type reservedKey struct {
	t       float64
	creator int32
	cseq    uint64
}

// fanRec is one scheduled fan as the harness sees it: the Fan handed to
// the subject, and the ids under which the reference holds its members
// as single events.
type fanRec struct {
	h       *diffHarness
	fan     Fan
	members []FanMember
	ids     []int
	n       int // members fired so far
}

// diffHarness drives a Scheduler and the reference in lockstep.
type diffHarness struct {
	t       *testing.T
	s       *Scheduler
	ref     *refSched
	rng     *rand.Rand
	handles []Handle // by event id; zero for a fan's members, which have none
	nextID  int
	fired   []int   // ids the Scheduler fired, in order
	spawns  []spawn // made by callbacks, not yet replayed onto the reference

	reserved   []reservedKey // drawn inside fans, injected by a later op
	stopIn     int           // when positive: call Stop from the stopIn-th callback from now
	observed   int           // after-event observer calls
	wantObs    int           // firings made through Run and Step, which notify observers
	execCounts []uint64      // per execution context, from the reference's pops
}

func (h *diffHarness) newID() int {
	id := h.nextID
	h.nextID++
	h.handles = append(h.handles, 0)
	return id
}

// callback is what every scheduled event runs: log the firing and, for
// every third event, schedule a child from inside the callback — the
// path on which a new event takes over the slot its parent just vacated.
func (h *diffHarness) callback(id int) {
	h.fired = append(h.fired, id)
	if h.stopIn > 0 {
		if h.stopIn--; h.stopIn == 0 {
			h.s.Stop()
		}
	}
	if id%3 != 0 {
		return
	}
	sp := spawn{parent: id, id: h.newID(), dt: []float64{0, 0.25, 1}[id%9/3], execAs: int32(id%5) - 1}
	if h.ref.split && sp.execAs < 0 {
		// A shard worker's window never creates global work due inside the
		// window (the lookahead guarantees it); keep children local.
		sp.execAs = 0
	}
	h.spawns = append(h.spawns, sp)
	cid := sp.id
	h.handles[cid] = h.s.AfterCtxAs(sp.dt, func(any) { h.callback(cid) }, nil, int(sp.execAs))
}

// schedule issues one scheduling call, picked at random among the forms
// the simulator uses, to both sides.
func (h *diffHarness) schedule() {
	id := h.newID()
	cur := int32(h.rng.Intn(6)) - 1
	execAs := int32(h.rng.Intn(5)) - 1
	// A small set of delays, so equal-time ties across creators are the
	// rule rather than the exception.
	t := h.s.Now() + []float64{0, 0.5, 0.5, 1, 1, 2, h.rng.Float64() * 3}[h.rng.Intn(7)]
	h.s.cur = cur
	fn := func() { h.callback(id) }
	switch h.rng.Intn(4) {
	case 0:
		execAs = cur // At inherits the scheduling context
		h.handles[id] = h.s.At(t, fn)
		c, k := h.ref.reserve(cur)
		h.ref.insert(id, t, c, k, execAs)
	case 1:
		h.handles[id] = h.s.AtCtxAs(t, func(any) { h.callback(id) }, nil, int(execAs))
		c, k := h.ref.reserve(cur)
		h.ref.insert(id, t, c, k, execAs)
	case 2:
		h.handles[id] = h.s.AtAs(t, fn, int(execAs))
		c, k := h.ref.reserve(cur)
		h.ref.insert(id, t, c, k, execAs)
	case 3:
		// A cross-shard delivery: the key is reserved first, other events
		// may be scheduled in between, and the event is injected later.
		c, k := h.reserveBoth(cur)
		h.handles[id] = h.s.InjectAtCtx(t, func(any) { h.callback(id) }, nil, int(execAs), c, k)
		h.ref.insert(id, t, c, k, execAs)
	}
	h.s.cur = -1
}

// fireFanMember is the callback of every fan: the next member in order
// is the one firing, under its own execution context, and the Fan says so.
func fireFanMember(x any) {
	r := x.(*fanRec)
	i := r.n
	r.n++
	if i >= len(r.ids) {
		r.h.t.Fatalf("a fan of %d members fired %d times", len(r.ids), r.n)
	}
	if got := r.fan.Fired(); got != r.members[i] {
		r.h.t.Fatalf("fan member %d: Fired() = %+v, want %+v", i, got, r.members[i])
	}
	if r.h.s.Cur() != int(r.members[i].ExecAs) {
		r.h.t.Fatalf("fan member %d runs under context %d, want %d", i, r.h.s.Cur(), r.members[i].ExecAs)
	}
	if r.fan.Done() != (r.n == len(r.ids)) {
		r.h.t.Fatalf("fan member %d of %d: Done() = %v", i, len(r.ids), r.fan.Done())
	}
	r.h.callback(r.ids[i])
}

// scheduleFan gives the subject one fan where the reference gets one
// single event per member. Keys are drawn member by member, as a
// broadcast draws them per receiver; now and then an extra key is drawn
// in between (a receiver on another shard), which leaves the members'
// cseqs non-consecutive and is injected later — at once, or by a later
// op when the fan may be half fired — to land between two members.
func (h *diffHarness) scheduleFan() {
	cur := int32(h.rng.Intn(6)) - 1
	t := h.s.Now() + []float64{0, 0.5, 0.5, 1, 1, 2}[h.rng.Intn(6)]
	h.s.cur = cur
	r := &fanRec{h: h}
	r.fan.Ctx = r
	for i, k := 0, 1+h.rng.Intn(7); i < k; i++ {
		execAs := int32(h.rng.Intn(5)) - 1
		if h.ref.split && execAs < 0 {
			execAs = 0 // a fan lives in the local heap
		}
		c, cseq := h.reserveBoth(cur)
		id := h.newID()
		r.fan.Add(cseq, int(execAs))
		r.members = append(r.members, FanMember{Cseq: cseq, ExecAs: execAs})
		r.ids = append(r.ids, id)
		h.ref.insert(id, t, c, cseq, execAs)
		if h.rng.Intn(3) == 0 {
			c, cseq := h.reserveBoth(cur)
			h.reserved = append(h.reserved, reservedKey{t, c, cseq})
		}
	}
	h.s.AtFan(t, cur, fireFanMember, &r.fan)
	h.s.cur = -1
	if h.rng.Intn(2) == 0 {
		h.injectReserved()
	}
}

func (h *diffHarness) reserveBoth(cur int32) (int32, uint64) {
	c, k := h.s.ReserveKey()
	rc, rk := h.ref.reserve(cur)
	if c != rc || k != rk {
		h.t.Fatalf("ReserveKey = (%d,%d), reference (%d,%d)", c, k, rc, rk)
	}
	return c, k
}

// injectReserved attaches events to the keys drawn inside fans. A key
// whose instant has passed is injected at the present one, where it still
// sorts among whatever is due now.
func (h *diffHarness) injectReserved() {
	for _, k := range h.reserved {
		id := h.newID()
		t := math.Max(k.t, h.s.Now())
		execAs := int32(h.rng.Intn(4))
		h.handles[id] = h.s.InjectAtCtx(t, func(any) { h.callback(id) }, nil, int(execAs), k.creator, k.cseq)
		h.ref.insert(id, t, k.creator, k.cseq, execAs)
	}
	h.reserved = h.reserved[:0]
}

// cancel cancels a random event ever issued — pending, fired, cancelled,
// or one whose slot has long since been handed to another event (a fan
// included).
func (h *diffHarness) cancel() {
	if h.nextID == 0 {
		return
	}
	id := h.rng.Intn(h.nextID)
	if h.handles[id] == 0 {
		if h.s.Cancel(0) {
			h.t.Fatal("Cancel of the zero Handle returned true")
		}
		return
	}
	got, want := h.s.Cancel(h.handles[id]), h.ref.cancel(id)
	if got != want {
		h.t.Fatalf("Cancel(event %d) = %v, reference %v", id, got, want)
	}
}

// replay pops from the reference one event for every firing the
// Scheduler logged from position `from` on — from the local queue for a
// shard-worker drain, else from whichever queue holds the canonical
// minimum — and checks identity and due time; each popped event's
// spawns are then scheduled on the reference under its execAs, the
// context its callback ran in.
func (h *diffHarness) replay(from int, local bool, horizon float64) {
	for _, id := range h.fired[from:] {
		qi := 0
		if !local {
			qi = h.ref.min()
		}
		if qi < 0 || len(h.ref.q[qi]) == 0 {
			h.t.Fatalf("fired event %d, the reference has nothing to fire", id)
		}
		ev := h.ref.pop(qi)
		if ev.id != id {
			h.t.Fatalf("fired event %d, reference order says %d (key %+v)", id, ev.id, ev.key)
		}
		if ev.key.Time >= horizon {
			h.t.Fatalf("fired event %d due at %v, at or past the horizon %v", id, ev.key.Time, horizon)
		}
		h.execCounts[ev.execAs+1]++
		for len(h.spawns) > 0 && h.spawns[0].parent == id {
			sp := h.spawns[0]
			h.spawns = h.spawns[1:]
			c, k := h.ref.reserve(ev.execAs)
			h.ref.insert(sp.id, h.ref.now+sp.dt, c, k, sp.execAs)
		}
	}
	if len(h.spawns) != 0 {
		h.t.Fatalf("%d spawns belong to no fired event", len(h.spawns))
	}
}

func (h *diffHarness) step() {
	n := len(h.fired)
	if fired, want := h.s.Step(math.Inf(1)), h.ref.min() >= 0; fired != want {
		h.t.Fatalf("Step = %v, reference has an event to fire: %v", fired, want)
	}
	h.wantObs += len(h.fired) - n
	h.replay(n, false, math.Inf(1))
	h.checkStep()
}

// stepAt asks for one event at the head's own instant (it must fire:
// the coordinator's barrier drain) or at an instant nothing is due at.
func (h *diffHarness) stepAt() {
	key, ok := h.s.PeekKey()
	if !ok {
		return
	}
	n := len(h.fired)
	if h.rng.Intn(4) == 0 {
		if h.s.StepAt(key.Time + 0.125) {
			h.t.Fatalf("StepAt fired an event due at %v for the instant %v", key.Time, key.Time+0.125)
		}
	} else if !h.s.StepAt(key.Time) {
		h.t.Fatalf("StepAt(%v) did not fire the head event %+v", key.Time, key)
	}
	h.replay(n, false, math.Inf(1))
	h.checkStep()
}

// runStop runs to a horizon inclusive of its instant, with a Stop from
// inside one of the first few callbacks half of the time — mid-fan, when
// a fan is what is firing.
func (h *diffHarness) runStop() {
	until := h.s.Now() + []float64{0, 0.5, 1}[h.rng.Intn(3)]
	if h.rng.Intn(2) == 0 {
		h.stopIn = 1 + h.rng.Intn(6)
	}
	n := len(h.fired)
	if got := h.s.Run(until); int(got) != len(h.fired)-n {
		h.t.Fatalf("Run returned %d, %d callbacks ran", got, len(h.fired)-n)
	}
	stopped := h.stopIn == 0 && h.s.stopped
	h.stopIn = 0
	h.wantObs += len(h.fired) - n
	h.replay(n, false, math.Nextafter(until, math.Inf(1)))
	if !stopped {
		if qi := h.ref.min(); qi >= 0 && h.ref.q[qi][0].key.Time <= until {
			h.t.Fatalf("Run(%v) left an event due at %v", until, h.ref.q[qi][0].key.Time)
		}
		h.ref.now = math.Max(h.ref.now, until)
	}
	h.checkStep()
}

// runBefore drains the local queue below a horizon the way a shard
// worker does.
func (h *diffHarness) runBefore(horizon float64) {
	n := len(h.fired)
	if got := h.s.RunBefore(horizon); int(got) != len(h.fired)-n {
		h.t.Fatalf("RunBefore returned %d, %d callbacks ran", got, len(h.fired)-n)
	}
	h.replay(n, true, horizon)
	if q := h.ref.q[0]; len(q) > 0 && q[0].key.Time < horizon {
		h.t.Fatalf("RunBefore(%v) left a local event due at %v", horizon, q[0].key.Time)
	}
	h.checkStep()
}

// checkStep is what must agree after every firing op: the clock, the
// counts of fired and of pending events, and the next key.
func (h *diffHarness) checkStep() {
	if h.s.Now() != h.ref.now {
		h.t.Fatalf("clock %v, reference %v", h.s.Now(), h.ref.now)
	}
	if h.s.Executed() != uint64(len(h.fired)) {
		h.t.Fatalf("Executed = %d, %d callbacks ran", h.s.Executed(), len(h.fired))
	}
	if h.observed != h.wantObs {
		h.t.Fatalf("after-event observers ran %d times for %d firings", h.observed, h.wantObs)
	}
	if h.s.Len() != len(h.ref.pending) {
		h.t.Fatalf("Len = %d, reference %d", h.s.Len(), len(h.ref.pending))
	}
	key, ok := h.s.PeekKey()
	qi := h.ref.min()
	if ok != (qi >= 0) || (ok && key != h.ref.q[qi][0].key) {
		h.t.Fatalf("PeekKey = %+v,%v; reference queue %d", key, ok, qi)
	}
}

func (h *diffHarness) check() {
	if err := h.s.CheckConsistency(); err != nil {
		h.t.Fatal(err)
	}
	h.checkStep()
	if !reflect.DeepEqual(h.s.ExecCounts(), h.execCounts) {
		h.t.Fatalf("ExecCounts = %v, reference %v", h.s.ExecCounts(), h.execCounts)
	}
	if h.ref.split {
		lt, lok := h.s.PeekLocal()
		gt, gok := h.s.PeekGlobal()
		if lok != (len(h.ref.q[0]) > 0) || (lok && lt != h.ref.q[0][0].key.Time) ||
			gok != (len(h.ref.q[1]) > 0) || (gok && gt != h.ref.q[1][0].key.Time) {
			h.t.Fatalf("PeekLocal/PeekGlobal = %v,%v / %v,%v disagree with the reference", lt, lok, gt, gok)
		}
	}
}

// TestQueueMatchesContainerHeap replays fuzzed schedule / fan / cancel /
// step / run streams against the container/heap reference, which holds
// one single event for every member of a fan: every firing, every Cancel
// verdict, and after every firing op the clock, Executed, Len, the next
// key and what the observer saw must agree — the per-context tallies and
// the peeks every few ops — with the two-queue split on and off.
func TestQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, split := range []bool{false, true} {
			s := NewScheduler()
			if split {
				s.SplitGlobal()
			}
			h := &diffHarness{t: t, s: s, ref: newRefSched(split), rng: rand.New(rand.NewSource(seed))}
			s.CountExec(5) // contexts -1..4
			h.execCounts = make([]uint64, 6)
			s.SetAfterEvent(func(float64) { h.observed++ })
			for op := 0; op < 1500; op++ {
				switch r := h.rng.Intn(16); {
				case r < 4:
					h.schedule()
				case r < 6:
					h.scheduleFan()
				case r < 8:
					h.cancel()
				case r < 12:
					h.step()
				case r < 13:
					h.stepAt()
				case r < 14:
					h.runStop()
				case r < 15:
					h.injectReserved()
				default:
					if split {
						// As the barrier protocol guarantees, the window
						// ends no later than the next global event.
						horizon := h.s.Now() + 0.5
						if g, ok := h.s.PeekGlobal(); ok {
							horizon = math.Min(horizon, g)
						}
						h.runBefore(horizon)
					} else {
						h.step()
					}
				}
				if op%16 == 0 {
					h.check()
				}
			}
			h.injectReserved()
			for h.s.Len() > 0 {
				h.step()
			}
			h.check()
			if len(h.ref.pending) != 0 {
				t.Fatalf("seed %d: scheduler drained, reference still holds %d events", seed, len(h.ref.pending))
			}
		}
	}
}

// TestCancelZeroAndStaleHandles pins the two handle edge cases the slab
// introduces: the zero Handle names no slot, and a handle whose slot has
// been handed to a later event must not cancel that event.
func TestCancelZeroAndStaleHandles(t *testing.T) {
	s := NewScheduler()
	if s.Cancel(0) {
		t.Fatal("Cancel of the zero Handle returned true on an empty scheduler")
	}
	first := s.At(1, func() {})
	if first == 0 {
		t.Fatal("a scheduled event received the zero Handle")
	}
	if s.Cancel(0) {
		t.Fatal("Cancel of the zero Handle returned true with an event pending")
	}
	s.Run(1)

	// The freelist is LIFO, so the next event takes the slot `first` had.
	ran := false
	second := s.At(2, func() { ran = true })
	if second.slotOf() != first.slotOf() {
		t.Fatalf("slot %d was not reused (got %d); the stale-handle case is not being exercised",
			first.slotOf(), second.slotOf())
	}
	if second == first {
		t.Fatal("a reused slot issued the same Handle twice")
	}
	if s.Cancel(first) {
		t.Fatal("a fired event's stale Handle cancelled the slot's next occupant")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after a refused Cancel, want 1", s.Len())
	}

	// Same through the cancel path: cancel, reuse, cancel the old handle.
	if !s.Cancel(second) {
		t.Fatal("Cancel of a pending event returned false")
	}
	third := s.At(3, func() { ran = true })
	if s.Cancel(second) {
		t.Fatal("a cancelled event's stale Handle cancelled the slot's next occupant")
	}
	s.RunAll()
	if !ran {
		t.Fatal("the live event did not run")
	}
	if s.Cancel(third) {
		t.Fatal("Cancel after firing returned true")
	}
	// A handle naming a slot the slab never had.
	if s.Cancel(makeHandle(1<<20, 0)) {
		t.Fatal("Cancel of an out-of-range slot returned true")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyCatchesCorruption breaks the bookkeeping in each of
// the ways the checker names and expects it to notice.
func TestCheckConsistencyCatchesCorruption(t *testing.T) {
	build := func() *Scheduler {
		s := NewScheduler()
		for i := 0; i < 40; i++ {
			s.At(float64(40-i), func() {})
		}
		// A fan of four at the head of the queue, its first member fired.
		f := &Fan{}
		for _, cseq := range []uint64{3, 5, 6, 9} {
			f.Add(cseq, 2)
		}
		s.AtFan(0.5, 7, func(any) {}, f)
		s.Step(1)
		h := s.At(100, func() {})
		s.Cancel(h) // one slot on the freelist
		return s
	}
	fanOf := func(s *Scheduler) *Fan { return s.box(s.queue[0].slot).ctx.(*Fan) }
	if err := build().CheckConsistency(); err != nil {
		t.Fatalf("intact scheduler: %v", err)
	}
	cases := map[string]func(s *Scheduler){
		"heap order": func(s *Scheduler) {
			s.queue[0], s.queue[7] = s.queue[7], s.queue[0]
			s.meta[s.queue[0].slot].pos = 0
			s.meta[s.queue[7].slot].pos = 7
		},
		"stale position":   func(s *Scheduler) { s.meta[s.queue[3].slot].pos = 9 },
		"pending on free":  func(s *Scheduler) { s.free = append(s.free, s.queue[2].slot) },
		"dirty free box":   func(s *Scheduler) { s.box(s.free[0]).ctx = "leak" },
		"lost slot":        func(s *Scheduler) { s.free = s.free[:0] },
		"before the clock": func(s *Scheduler) { s.now = 50 },
		"empty box":        func(s *Scheduler) { s.box(s.queue[1].slot).fn = nil },
		// The fan entry must carry its next member's key, the cursor must
		// name an unfired member, and the members still to fire must ascend.
		"fan key":        func(s *Scheduler) { s.queue[0].cseq = 4 },
		"fan context":    func(s *Scheduler) { s.box(s.queue[0].slot).execAs = 1 },
		"fan cursor":     func(s *Scheduler) { fanOf(s).next = 4 },
		"fan descending": func(s *Scheduler) { fanOf(s).members[3].Cseq = 6 },
		"fan count":      func(s *Scheduler) { s.fanExtra-- },
		"fan mark":       func(s *Scheduler) { s.box(s.queue[1].slot).fan = true },
	}
	for name, corrupt := range cases {
		s := build()
		corrupt(s)
		if s.CheckConsistency() == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}
