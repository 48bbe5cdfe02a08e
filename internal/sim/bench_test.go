package sim

import (
	"math/rand"
	"testing"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		if s.Len() >= 1024 {
			s.Run(s.Now() + 2)
		}
	}
}

func BenchmarkSelfRescheduling(b *testing.B) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.After(1, tick)
	}
	s.After(1, tick)
	b.ResetTimer()
	s.Run(float64(b.N))
	if count == 0 {
		b.Fatal("no ticks")
	}
}

func BenchmarkCancel(b *testing.B) {
	s := NewScheduler()
	handles := make([]Handle, 0, 1024)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handles = append(handles, s.At(float64(i%1000)+s.Now()+1, fn))
		if len(handles) == cap(handles) {
			for _, h := range handles {
				s.Cancel(h)
			}
			handles = handles[:0]
		}
	}
}

// BenchmarkSameTimeBurst models a broadcast fan-out: many events queued
// at one instant (one delivery per neighbor), drained in FIFO order.
// This is the dominant scheduler pattern during regional floods.
func BenchmarkSameTimeBurst(b *testing.B) {
	benchBurst(b, 0, false)
}

// BenchmarkFanBurst is BenchmarkSameTimeBurst's burst scheduled as one
// fan: the same 64 same-instant events per iteration, one heap entry.
// Both report ns per fired event (ns/op ÷ 64).
func BenchmarkFanBurst(b *testing.B) {
	benchBurst(b, 0, true)
}

// BenchmarkSameTimeBurstFar and BenchmarkFanBurstFar fire the burst in
// front of 20 000 pending far-future events (one timer per node: the
// depth scale_10k runs at), where every single-event pop sifts a far
// timer down the whole heap and a fan member's does not.
func BenchmarkSameTimeBurstFar(b *testing.B) {
	benchBurst(b, 20000, false)
}

func BenchmarkFanBurstFar(b *testing.B) {
	benchBurst(b, 20000, true)
}

func benchBurst(b *testing.B, far int, fan bool) {
	s := NewScheduler()
	fn := func() {}
	fnCtx := func(any) {}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < far; i++ {
		s.At(1e9+rng.Float64()*1e6, fn)
	}
	const burst = 64
	f := &Fan{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.Now() + 1
		if fan {
			f.Reset()
			for j := 0; j < burst; j++ {
				_, cseq := s.ReserveKey()
				f.Add(cseq, j)
			}
			s.AtFan(at, -1, fnCtx, f)
		} else {
			for j := 0; j < burst; j++ {
				s.AtCtxAs(at, fnCtx, nil, j)
			}
		}
		s.Run(at)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/burst, "ns/event")
}

func BenchmarkRNGStream(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Stream("component")
	}
}
