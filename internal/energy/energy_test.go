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
	m := DefaultModel()
	cases := []Class{BroadcastSend, BroadcastRecv, P2PSend, P2PRecv, Discard}
	for _, c := range cases {
		if m.Cost(c, 100) <= 0 {
			t.Errorf("Cost(%v, 100) not positive", c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown class did not panic")
		}
	}()
	m.Cost(Class(42), 1)
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

func TestMeterAccounting(t *testing.T) {
	mt, err := NewMeter(3, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	c1 := mt.Charge(0, BroadcastSend, 500)
	c2 := mt.Charge(1, BroadcastRecv, 500)
	c3 := mt.Charge(1, P2PSend, 200)

	if got := mt.Node(0); got != c1 {
		t.Errorf("Node(0) = %v, want %v", got, c1)
	}
	if got := mt.Node(1); math.Abs(got-(c2+c3)) > 1e-12 {
		t.Errorf("Node(1) = %v, want %v", got, c2+c3)
	}
	if got := mt.Node(2); got != 0 {
		t.Errorf("Node(2) = %v, want 0", got)
	}
	if got := mt.Total(); math.Abs(got-(c1+c2+c3)) > 1e-12 {
		t.Errorf("Total = %v, want %v", got, c1+c2+c3)
	}
	if got := mt.ByClass(BroadcastSend); got != c1 {
		t.Errorf("ByClass(BroadcastSend) = %v, want %v", got, c1)
	}
	if mt.Messages(BroadcastSend) != 1 || mt.Messages(P2PSend) != 1 || mt.Messages(P2PRecv) != 0 {
		t.Error("message counters wrong")
	}
}

func TestMeterReset(t *testing.T) {
	mt, _ := NewMeter(2, DefaultModel())
	mt.Charge(0, P2PSend, 100)
	mt.Charge(1, P2PRecv, 100)
	mt.Reset()
	if mt.Total() != 0 || mt.Node(0) != 0 || mt.Node(1) != 0 {
		t.Error("Reset left residual energy")
	}
	if mt.Messages(P2PSend) != 0 {
		t.Error("Reset left residual message counts")
	}
	if err := mt.Model().Validate(); err != nil {
		t.Error("Reset clobbered the model")
	}
}

// Property: total always equals the sum of per-node energies and the sum
// of per-class energies.
func TestMeterConservation(t *testing.T) {
	f := func(ops []struct {
		Node  uint8
		Class uint8
		Size  uint16
	}) bool {
		mt, err := NewMeter(8, DefaultModel())
		if err != nil {
			return false
		}
		for _, op := range ops {
			mt.Charge(int(op.Node%8), Class(op.Class%5), int(op.Size))
		}
		var nodeSum, classSum float64
		for i := 0; i < 8; i++ {
			nodeSum += mt.Node(i)
		}
		for c := Class(0); c < numClasses; c++ {
			classSum += mt.ByClass(c)
		}
		tol := 1e-9 * (1 + mt.Total())
		return math.Abs(nodeSum-mt.Total()) < tol && math.Abs(classSum-mt.Total()) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: cost is monotone in size for every class.
func TestCostMonotoneInSize(t *testing.T) {
	m := DefaultModel()
	f := func(a, b uint16, classRaw uint8) bool {
		c := Class(classRaw % 5)
		small, large := int(a), int(b)
		if small > large {
			small, large = large, small
		}
		return m.Cost(c, small) <= m.Cost(c, large)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSlotChargesFoldExactly: charges taken by slot land on the node the
// slot held when they were taken — also after the order is rewritten in
// place, as a rebuild does after Slots — and every read, Reset and Merge
// sees them as if they had been charged to the node directly. A send
// class has no slot column.
func TestSlotChargesFoldExactly(t *testing.T) {
	order := []int32{2, 0, 3, 1}
	slotted, direct := newTestMeter(t, 4), newTestMeter(t, 4)
	slotted.Slots(order)
	charge := func(slot int, c Class, size int) {
		slotted.ChargeSlot(slot, c, size)
		direct.Charge(int(order[slot]), c, size)
	}
	same := func(when string, a, b *Meter) {
		t.Helper()
		// Read a's slots before comparing the cells whole.
		if a.Total() != b.Total() || a.Messages(Discard) != b.Messages(Discard) {
			t.Fatalf("%s: slot charges read %v / %d, direct %v / %d", when, a.Total(), a.Messages(Discard), b.Total(), b.Messages(Discard))
		}
		for i := 0; i < 4; i++ {
			if a.Node(i) != b.Node(i) {
				t.Fatalf("%s: node %d spent %v by slot, %v directly", when, i, a.Node(i), b.Node(i))
			}
		}
	}
	charge(0, BroadcastRecv, 100)
	charge(3, P2PRecv, 70)
	charge(1, Discard, 9)
	same("first reads", slotted, direct)

	charge(2, Discard, 33)
	slotted.Slots(order) // what a rebuild does before it reorders
	order[0], order[3] = order[3], order[0]
	charge(0, BroadcastRecv, 12)
	charge(3, Discard, 5)
	same("after a reorder", slotted, direct)

	charge(1, P2PRecv, 8)
	slotted.Reset()
	direct.Reset()
	same("after Reset with charges owed", slotted, direct)

	charge(2, BroadcastRecv, 40)
	into, ref := newTestMeter(t, 4), newTestMeter(t, 4)
	if err := into.Merge(slotted); err != nil {
		t.Fatal(err)
	}
	if err := ref.Merge(direct); err != nil {
		t.Fatal(err)
	}
	same("merged with charges owed", into, ref)

	defer func() {
		if recover() == nil {
			t.Error("a send class was charged by slot")
		}
	}()
	slotted.ChargeSlot(0, BroadcastSend, 1)
}

func newTestMeter(t *testing.T, n int) *Meter {
	t.Helper()
	mt, err := NewMeter(n, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	return mt
}
