package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWindowBarrierRendezvous drives n participants through many rounds
// and checks the barrier's one contract: no participant enters round
// r+1 before every participant finished round r.
func TestWindowBarrierRendezvous(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		b := NewWindowBarrier(n)
		const rounds = 2000
		var done [64]atomic.Int64 // per-round completion counts
		var wg sync.WaitGroup
		var violations atomic.Int64
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					done[r%64].Add(1)
					b.Await()
					// Everyone must have completed this round by now.
					if got := done[r%64].Load(); got != int64(n) {
						violations.Add(1)
					}
					b.Await()
					// Second rendezvous separates the check from the
					// reset; racing idempotent Store(0)s are fine, and
					// the slot is not re-used for another 63 rounds.
					done[r%64].Store(0)
					b.Await()
				}
			}()
		}
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("n=%d: %d rendezvous violations", n, v)
		}
	}
}

// TestWindowBarrierSingle pins the degenerate single-participant case:
// Await must return immediately, forever.
func TestWindowBarrierSingle(t *testing.T) {
	b := NewWindowBarrier(1)
	for i := 0; i < 1000; i++ {
		b.Await()
	}
}

// TestRunBeforeExcludesHorizon pins the window semantics the parallel
// protocol's safety proof rests on: RunBefore(h) fires events strictly
// below h only — an event exactly at the horizon (for example a
// cross-shard frame landing exactly at H) stays queued for the next
// round — and the clock never advances to h on its own.
func TestRunBeforeExcludesHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, at := range []float64{1.0, 1.5, 2.0} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	if n := s.RunBefore(2.0); n != 2 {
		t.Fatalf("RunBefore(2.0) fired %d events, want 2", n)
	}
	if len(fired) != 2 || fired[0] != 1.0 || fired[1] != 1.5 {
		t.Fatalf("fired = %v, want [1 1.5]", fired)
	}
	if s.Now() != 1.5 {
		t.Fatalf("clock = %v, want 1.5 (last fired event, not the horizon)", s.Now())
	}
	if tm, ok := s.PeekLocal(); !ok || tm != 2.0 {
		t.Fatalf("horizon event must stay queued, peek = %v/%v", tm, ok)
	}
}

// TestInjectAtHorizonBoundary pins the other half of the safety
// argument: an injected cross-shard delivery due exactly at the
// receiver's current clock (the tightest arrival the lookahead bound
// permits after the receiver advanced to a barrier instant) is
// accepted and fires, while an arrival in the past panics.
func TestInjectAtHorizonBoundary(t *testing.T) {
	s := NewScheduler()
	s.SplitGlobal()
	s.AdvanceTo(5.0)
	creator, cseq := s.ReserveKey()
	var got float64
	s.InjectAtCtx(5.0, func(any) { got = s.Now() }, nil, 3, creator, cseq)
	s.Run(5.0)
	if got != 5.0 {
		t.Fatalf("injected boundary event fired at %v, want 5.0", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("injecting before the clock must panic")
		}
	}()
	c2, q2 := s.ReserveKey()
	s.InjectAtCtx(4.0, func(any) {}, nil, 3, c2, q2)
}

// TestStepAtCanonicalInterleave models the coordinator's barrier drain
// over two schedulers sharing one counter set: events due at the same
// instant on different schedulers must fire in canonical key order,
// exactly as a single sequential scheduler would have interleaved them.
func TestStepAtCanonicalInterleave(t *testing.T) {
	k := NewCounters(4)
	a := NewSchedulerWithCounters(k)
	b := NewSchedulerWithCounters(k)
	var order []int
	// Alternate scheduling across the two queues so canonical order
	// (per-creator cseq draw order) interleaves them: a, b, a, b.
	a.At(7.0, func() { order = append(order, 0) })
	b.At(7.0, func() { order = append(order, 1) })
	a.At(7.0, func() { order = append(order, 2) })
	b.At(7.0, func() { order = append(order, 3) })
	a.AdvanceTo(7.0)
	b.AdvanceTo(7.0)
	scheds := []*Scheduler{a, b}
	for {
		best := -1
		var bestKey EventKey
		for i, sc := range scheds {
			key, ok := sc.PeekKey()
			if !ok || key.Time != 7.0 {
				continue
			}
			if best < 0 || key.Less(bestKey) {
				best, bestKey = i, key
			}
		}
		if best < 0 {
			break
		}
		scheds[best].StepAt(7.0)
	}
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("canonical drain order = %v, want [0 1 2 3]", order)
		}
	}
}

// TestCountExec pins the test oracle's accounting: fired events tally
// under their execAs context at index execAs+1.
func TestCountExec(t *testing.T) {
	s := NewScheduler()
	s.CountExec(3)
	s.AtCtxAs(1.0, func(any) {}, nil, 0)
	s.AtCtxAs(2.0, func(any) {}, nil, 2)
	s.AtCtxAs(3.0, func(any) {}, nil, 2)
	s.AtCtxAs(4.0, func(any) {}, nil, -1)
	s.Run(10)
	got := s.ExecCounts()
	want := []uint64{1, 1, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("ExecCounts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExecCounts = %v, want %v", got, want)
		}
	}
}

// BenchmarkWindowBarrier measures one full rendezvous across n
// participants — the per-window synchronization cost of the parallel
// protocol. With GOMAXPROCS < n the spin path is disabled and the
// number reflects park/wake latency instead; the benchmark reports
// which regime it measured.
func BenchmarkWindowBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		name := "n=2"
		switch n {
		case 4:
			name = "n=4"
		case 8:
			name = "n=8"
		}
		b.Run(name, func(b *testing.B) {
			if runtime.GOMAXPROCS(0) < n {
				b.Logf("GOMAXPROCS=%d < %d participants: measuring park/wake, not spin", runtime.GOMAXPROCS(0), n)
			}
			bar := NewWindowBarrier(n)
			var wg sync.WaitGroup
			for i := 1; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < b.N; j++ {
						bar.Await()
					}
				}()
			}
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				bar.Await()
			}
			wg.Wait()
		})
	}
}

// BenchmarkEmptyWindowSkip measures the coordinator-side cost of one
// protocol round in which every shard skips its window: publish peek
// times, cross the decision arithmetic, and do no event work. This is
// the floor a sharded run pays per window even when nothing happens.
func BenchmarkEmptyWindowSkip(b *testing.B) {
	const shards = 4
	type slot struct {
		local  [2]atomic.Uint64
		global [2]atomic.Uint64
		outbox [2]atomic.Uint64
		_      [16]byte
	}
	status := make([]slot, shards)
	scheds := make([]*Scheduler, shards)
	k := NewCounters(shards)
	for i := range scheds {
		scheds[i] = NewSchedulerWithCounters(k)
		scheds[i].SplitGlobal()
		// One far-future peer-context event per shard so the local-queue
		// peeks return real times (execAs -1 would land in the global
		// queue under SplitGlobal).
		scheds[i].AtCtxAs(1e9+float64(i), func(any) {}, nil, 0)
	}
	inf := math.Inf(1)
	b.ResetTimer()
	for r := 0; r < b.N; r++ {
		pr := uint(r) & 1
		// Publish phase (all shards, as the participants would).
		for i, sc := range scheds {
			lt, gt := inf, inf
			if t, ok := sc.PeekLocal(); ok {
				lt = t
			}
			if t, ok := sc.PeekGlobal(); ok {
				gt = t
			}
			status[i].local[pr].Store(math.Float64bits(lt))
			status[i].global[pr].Store(math.Float64bits(gt))
			status[i].outbox[pr].Store(0)
		}
		// Decision phase.
		T, G := inf, inf
		cross := false
		for i := range status {
			if t := math.Float64frombits(status[i].local[pr].Load()); t < T {
				T = t
			}
			if t := math.Float64frombits(status[i].global[pr].Load()); t < G {
				G = t
			}
			if status[i].outbox[pr].Load() > 0 {
				cross = true
			}
		}
		if cross || T > 2e9 {
			b.Fatal("unexpected decision")
		}
	}
}
