package sim

import (
	"testing"
	"unsafe"
)

// TestScheduleFireRecycleAllocFree is the alloc floor for the scheduler
// hot cycle: once the freelist is warm, Schedule → fire → recycle must
// not allocate at all — the event box popped from the heap is handed
// straight back to the next Schedule.
func TestScheduleFireRecycleAllocFree(t *testing.T) {
	s := NewScheduler()
	var at float64
	fired := 0
	fn := func() { fired++ }

	// Warm the freelist and the heap/pending capacity.
	for i := 0; i < 64; i++ {
		at += 0.001
		s.At(at, fn)
	}
	s.Run(at)

	avg := testing.AllocsPerRun(1000, func() {
		at += 0.001
		s.At(at, fn)
		s.Run(at)
	})
	if avg != 0 {
		t.Errorf("Schedule/fire/recycle cycle allocates %.2f objects/op, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("no events fired; the measurement is vacuous")
	}
}

// TestScheduleFireRecycleCtxAllocFree is the same floor for the
// closure-free AtCtx form used by the radio delivery path.
func TestScheduleFireRecycleCtxAllocFree(t *testing.T) {
	s := NewScheduler()
	var at float64
	fired := 0
	type box struct{ n *int }
	ctx := &box{n: &fired}
	fn := func(x any) { *x.(*box).n++ }

	for i := 0; i < 64; i++ {
		at += 0.001
		s.AtCtx(at, fn, ctx)
	}
	s.Run(at)

	avg := testing.AllocsPerRun(1000, func() {
		at += 0.001
		s.AtCtx(at, fn, ctx)
		s.Run(at)
	})
	if avg != 0 {
		t.Errorf("AtCtx schedule/fire/recycle cycle allocates %.2f objects/op, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("no events fired; the measurement is vacuous")
	}
}

// TestFanScheduleFireRecycleAllocFree is the floor for the fan form the
// radio's broadcasts use: refilling a pooled Fan, scheduling it and
// firing its members allocates nothing once the member list and the
// freelist are warm.
func TestFanScheduleFireRecycleAllocFree(t *testing.T) {
	s := NewScheduler()
	var at float64
	fired := 0
	f := &Fan{Ctx: &fired}
	fn := func(x any) { *x.(*int)++ }
	cycle := func() {
		at += 0.001
		f.Reset()
		for i := 0; i < 12; i++ {
			_, cseq := s.ReserveKey()
			f.Add(cseq, i)
		}
		s.AtFan(at, -1, fn, f)
		s.Run(at)
	}
	cycle()

	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("fan schedule/fire/recycle cycle allocates %.2f objects/op, want 0", avg)
	}
	if fired != 12*1002 || !f.Done() || s.Len() != 0 {
		t.Fatalf("%d members fired (want %d), Done = %v, Len = %d", fired, 12*1002, f.Done(), s.Len())
	}
}

// TestBoxSize pins the event box at 40 bytes: releaseSlot clears one per
// fired event and the slab holds one per pending event, so a field added
// for a rare kind of event is paid by all of them (the fan mark sits in
// padding; the fan's state is behind ctx).
func TestBoxSize(t *testing.T) {
	if got := unsafe.Sizeof(box{}); got != 40 {
		t.Errorf("sim.box is %d bytes, want 40", got)
	}
}
