package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearCost(t *testing.T) {
	l := Linear{M: 2, B: 5}
	if got := l.Cost(10); got != 25 {
		t.Errorf("Cost(10) = %v, want 25", got)
	}
	if got := l.Cost(0); got != 5 {
		t.Errorf("Cost(0) = %v, want 5 (fixed overhead)", got)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		BroadcastSend: "broadcast-send",
		BroadcastRecv: "broadcast-recv",
		P2PSend:       "p2p-send",
		P2PRecv:       "p2p-recv",
		Discard:       "discard",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(c), got, want)
		}
	}
	if got := Class(99).String(); got != "class(99)" {
		t.Errorf("unknown class String = %q", got)
	}
}

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultModelProportions(t *testing.T) {
	m := DefaultModel()
	const size = 1000
	// Point-to-point traffic carries extra MAC negotiation overhead.
	if m.P2PSend.Cost(size) <= m.BroadcastSend.Cost(size) {
		t.Error("p2p send should cost more than broadcast send")
	}
	if m.P2PRecv.Cost(size) <= m.BroadcastRecv.Cost(size) {
		t.Error("p2p recv should cost more than broadcast recv")
	}
	// Sending costs more than receiving.
	if m.BroadcastSend.Cost(size) <= m.BroadcastRecv.Cost(size) {
		t.Error("send should cost more than recv")
	}
	// Discarding an overheard frame is cheap.
	if m.Discard.Cost(size) > m.P2PRecv.Cost(size) {
		t.Error("discard should not cost more than an addressed receive")
	}
}

func TestModelValidateRejectsNegative(t *testing.T) {
	m := DefaultModel()
	m.P2PRecv.B = -1
	if err := m.Validate(); err == nil {
		t.Error("negative coefficient accepted")
	}
}

func TestModelValidateRejectsAllZero(t *testing.T) {
	var m Model
	if err := m.Validate(); err == nil {
		t.Error("all-zero model accepted")
	}
}

func TestModelCostDispatch(t *testing.T) {
	m := Model{
		BroadcastSend: Linear{M: 1, B: 10},
		BroadcastRecv: Linear{M: 2, B: 20},
		P2PSend:       Linear{M: 3, B: 30},
		P2PRecv:       Linear{M: 4, B: 40},
		Discard:       Linear{M: 5, B: 50},
	}
	for c := Class(0); c < numClasses; c++ {
		if want := (Linear{M: float64(c + 1), B: float64(10 * (c + 1))}); m.linear(c) != want {
			t.Errorf("linear(%v) = %+v, want %+v", c, m.linear(c), want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown class did not panic")
		}
	}()
	m.linear(Class(42))
}

func TestNewMeterValidation(t *testing.T) {
	if _, err := NewMeter(0, DefaultModel()); err == nil {
		t.Error("0 nodes accepted")
	}
	var zero Model
	if _, err := NewMeter(5, zero); err == nil {
		t.Error("invalid model accepted")
	}
}

// op is one charge of a random stream.
type op struct {
	Node  uint8
	Class uint8
	Size  uint16
}

func (o op) charge(mt *Meter) { mt.Charge(int(o.Node), Class(o.Class%uint8(numClasses)), int(o.Size)) }

// classCost is what ByClass must read for count messages of bytes in
// total under l.
func classCost(l Linear, bytes int64, count uint64) float64 {
	return float64(l.M*float64(bytes)) + float64(l.B*float64(count))
}

func TestMeterAccounting(t *testing.T) {
	mt := newTestMeter(t, 3)
	mt.Charge(0, BroadcastSend, 500)
	mt.Charge(1, BroadcastRecv, 500)
	mt.Charge(2, BroadcastRecv, 500)
	mt.Charge(1, P2PSend, 200)
	mt.Charge(1, P2PSend, 300)

	m := DefaultModel()
	want := map[Class]struct {
		cost float64
		n    uint64
	}{
		BroadcastSend: {m.BroadcastSend.Cost(500), 1},
		BroadcastRecv: {classCost(m.BroadcastRecv, 1000, 2), 2},
		P2PSend:       {classCost(m.P2PSend, 500, 2), 2},
		P2PRecv:       {0, 0},
		Discard:       {0, 0},
	}
	var total float64
	for c := Class(0); c < numClasses; c++ {
		if got := mt.ByClass(c); got != want[c].cost {
			t.Errorf("ByClass(%v) = %v, want %v", c, got, want[c].cost)
		}
		if got := mt.Messages(c); got != want[c].n {
			t.Errorf("Messages(%v) = %d, want %d", c, got, want[c].n)
		}
		total += want[c].cost
	}
	if got := mt.Total(); got != total {
		t.Errorf("Total = %v, want %v", got, total)
	}
}

func TestMeterReset(t *testing.T) {
	mt := newTestMeter(t, 2)
	mt.Charge(0, P2PSend, 100)
	mt.Charge(1, P2PRecv, 100)
	mt.Reset()
	if mt.Total() != 0 {
		t.Error("Reset left residual energy")
	}
	for c := Class(0); c < numClasses; c++ {
		if mt.ByClass(c) != 0 || mt.Messages(c) != 0 {
			t.Errorf("Reset left %v at %v over %d messages", c, mt.ByClass(c), mt.Messages(c))
		}
	}
	mt.Charge(0, P2PRecv, 100)
	if got, want := mt.ByClass(P2PRecv), DefaultModel().P2PRecv.Cost(100); got != want {
		t.Errorf("after Reset a p2p-recv charge reads %v, want %v: the model was not kept", got, want)
	}
}

// Property: every charge lands in its class, and Total is the sum of the
// classes, whatever the stream.
func TestMeterConservation(t *testing.T) {
	m := DefaultModel()
	f := func(ops []op) bool {
		mt := newTestMeter(t, 8)
		var bytes [numClasses]int64
		var count [numClasses]uint64
		for _, o := range ops {
			o.charge(mt)
			c := o.Class % uint8(numClasses)
			bytes[c] += int64(o.Size)
			count[c]++
		}
		var total float64
		for c := Class(0); c < numClasses; c++ {
			if mt.Messages(c) != count[c] || mt.ByClass(c) != classCost(m.linear(c), bytes[c], count[c]) {
				return false
			}
			total += mt.ByClass(c)
		}
		return mt.Total() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: two meters charged with any split of one stream merge to
// exactly the meter charged with all of it, bit for bit. A sharded run
// relies on this to report what the sequential run reports.
func TestMeterMergeSplitsExactly(t *testing.T) {
	f := func(ops []op, split []bool) bool {
		whole, a, b := newTestMeter(t, 8), newTestMeter(t, 8), newTestMeter(t, 8)
		for i, o := range ops {
			o.charge(whole)
			if i < len(split) && split[i] {
				o.charge(a)
			} else {
				o.charge(b)
			}
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		return *a == *whole && math.Float64bits(a.Total()) == math.Float64bits(whole.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	other := DefaultModel()
	other.Discard.B *= 2
	mt, err := NewMeter(8, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := newTestMeter(t, 8).Merge(mt); err == nil {
		t.Error("merged meters of different models")
	}
}

// Property: cost is monotone in size for every class.
func TestCostMonotoneInSize(t *testing.T) {
	m := DefaultModel()
	f := func(a, b uint16, classRaw uint8) bool {
		l := m.linear(Class(classRaw % 5))
		small, large := int(a), int(b)
		if small > large {
			small, large = large, small
		}
		return l.Cost(small) <= l.Cost(large)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newTestMeter(t *testing.T, n int) *Meter {
	t.Helper()
	mt, err := NewMeter(n, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	return mt
}
