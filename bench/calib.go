package main

import (
	"container/heap"
	"time"

	"precinct/internal/stats"
)

// The host this benchmark runs on is a few cores of a shared machine
// whose speed wanders: the same run of the same code takes 1.2-1.9x
// longer for tens of seconds to minutes at a time, and a raw wall clock
// compared across two calls measures that, not the simulator. So every
// child process is bracketed by slices of a fixed reference kernel, and
// host times are reported as they would read at the kernel's nominal
// speed:
//
//	wall_s = median over the timed runs of
//	         raw wall x calibNominalNS / median kernel ns per op around that run
//	         and the two runs before and after it
//
// The kernel is this file and the standard library only. It shares no
// code with the simulator, so a change to the simulator cannot move it,
// and it runs in the bench's own process while no child is running. The
// raw readings stay in the report as host.wall_raw_s and
// host.setup_raw_s, with host.speed_ratio beside them.

const (
	// calibNominalNS is the kernel's cost per operation on the host this
	// benchmark was written on, in a quiet phase. It only fixes the unit:
	// normalised seconds are seconds of that host.
	calibNominalNS = 350.0
	// calibNodes sizes the kernel's state (512 B per node, 2 MiB) and its
	// pending heap (3 per node), between paper_80's and scale_10k's.
	calibNodes = 4096
	// calibSliceOps is the length of one slice, about 18 ms.
	calibSliceOps = 50_000
	// calibNear is how many runs on either side lend their slices to the
	// estimate of the host's speed during a run.
	calibNear = 2
)

type calibEvent struct {
	at   float64
	node uint32
}

// calibHeap goes through container/heap on purpose: every push and pop
// boxes an event, so the kernel allocates and collects garbage as the
// simulator does. Of the kernels tried (cache-resident and allocation
// free, 64 MiB of random access, this one) this one's time followed the
// simulator's most closely through the host's slow phases.
type calibHeap []calibEvent

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(calibEvent)) }
func (h *calibHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calibKernel is a mock event loop with the simulator's kind of work: pop
// the earliest event from a binary heap, touch one node's state at
// random, count a key in a map, push a later event.
type calibKernel struct {
	pending calibHeap
	state   []float64
	seen    map[uint64]uint32
	rng     uint64
	sink    float64
}

const calibNodeWords = 64

func newCalibKernel() *calibKernel {
	k := &calibKernel{
		state: make([]float64, calibNodes*calibNodeWords),
		seen:  map[uint64]uint32{},
		rng:   88172645463325252,
	}
	for i := 0; i < 3*calibNodes; i++ {
		heap.Push(&k.pending, calibEvent{at: float64(k.next() % 1000), node: uint32(i % calibNodes)})
	}
	return k
}

// next is xorshift64: the kernel's inputs never change.
func (k *calibKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

func (k *calibKernel) run(ops int) {
	for i := 0; i < ops; i++ {
		e := heap.Pop(&k.pending).(calibEvent)
		r := k.next()
		node := int(r % calibNodes)
		s := k.state[node*calibNodeWords : (node+1)*calibNodeWords]
		s[(r>>32)%calibNodeWords] += e.at * 0.5
		k.sink += s[0] + s[calibNodeWords-1]
		k.seen[r%4096]++
		if len(k.seen) > 3000 {
			delete(k.seen, (r>>20)%4096)
		}
		heap.Push(&k.pending, calibEvent{at: e.at + float64(r%977)/100, node: uint32(node)})
	}
}

// slices runs n slices of the kernel and returns each one's nanoseconds
// per operation. One more slice runs first, unmeasured: the kernel's
// state has left the CPU cache while the child ran.
func (k *calibKernel) slices(n int) []float64 {
	k.run(calibSliceOps)
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		k.run(calibSliceOps)
		out[i] = float64(time.Since(t0).Nanoseconds()) / calibSliceOps
	}
	return out
}

// hostSpeed is the host's speed against the nominal one while the slices
// ran: 1 at the nominal speed, below 1 on a slower host.
func hostSpeed(slices []float64) float64 {
	if len(slices) == 0 {
		return 1
	}
	return calibNominalNS / stats.Median(slices)
}

// scaled returns the raw host times as they read at the nominal speed.
func scaled(raw []float64, speed float64) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = v * speed
	}
	return out
}
