// Package energy implements the linear per-message energy model of
// Feeney ("An energy consumption model for performance analysis of routing
// protocols for mobile ad hoc networks", MONET 2001), which the paper's
// Section 5 adopts:
//
//	cost = m*size + b
//
// with distinct (m, b) pairs for the four traffic classes —
// broadcast/point-to-point crossed with send/receive — plus a discard cost
// for point-to-point frames overheard by non-addressees. All energies are
// in millijoules, sizes in bytes.
package energy

import "fmt"

// Class labels a traffic class for accounting.
type Class int

// Traffic classes.
const (
	BroadcastSend Class = iota
	BroadcastRecv
	P2PSend
	P2PRecv
	Discard
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case BroadcastSend:
		return "broadcast-send"
	case BroadcastRecv:
		return "broadcast-recv"
	case P2PSend:
		return "p2p-send"
	case P2PRecv:
		return "p2p-recv"
	case Discard:
		return "discard"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Linear holds the coefficients of one traffic class: cost = M*size + B.
type Linear struct {
	M float64 // incremental cost, mJ per byte
	B float64 // fixed per-message overhead, mJ
}

// Cost evaluates the model for a message of the given size in bytes.
func (l Linear) Cost(size int) float64 { return l.M*float64(size) + l.B }

// Model bundles the coefficients of all traffic classes.
type Model struct {
	BroadcastSend Linear
	BroadcastRecv Linear
	P2PSend       Linear
	P2PRecv       Linear
	// Discard is the cost a node pays to receive and drop a
	// point-to-point frame addressed to somebody else. Feeney measured
	// this as roughly the broadcast-receive cost.
	Discard Linear
}

// DefaultModel returns coefficients in the proportions Feeney measured for
// an 802.11 interface (point-to-point costs exceed broadcast costs because
// of MAC-layer RTS/CTS/ACK negotiation; sending costs exceed receiving).
// Units: mJ per byte and mJ per message. The paper's figures depend only
// on these proportions, not the absolute scale.
func DefaultModel() Model {
	return Model{
		BroadcastSend: Linear{M: 1.9e-3, B: 0.266},
		BroadcastRecv: Linear{M: 0.5e-3, B: 0.056},
		P2PSend:       Linear{M: 1.9e-3, B: 0.454},
		P2PRecv:       Linear{M: 0.5e-3, B: 0.356},
		Discard:       Linear{M: 0.5e-3, B: 0.056},
	}
}

// Validate checks that all coefficients are non-negative and at least one
// is positive.
func (m Model) Validate() error {
	classes := []struct {
		name string
		l    Linear
	}{
		{"broadcast-send", m.BroadcastSend},
		{"broadcast-recv", m.BroadcastRecv},
		{"p2p-send", m.P2PSend},
		{"p2p-recv", m.P2PRecv},
		{"discard", m.Discard},
	}
	allZero := true
	for _, c := range classes {
		if c.l.M < 0 || c.l.B < 0 {
			return fmt.Errorf("energy: %s has negative coefficient (m=%v, b=%v)", c.name, c.l.M, c.l.B)
		}
		if c.l.M > 0 || c.l.B > 0 {
			allZero = false
		}
	}
	if allZero {
		return fmt.Errorf("energy: all coefficients zero; model would measure nothing")
	}
	return nil
}

// Cost evaluates the model for one message of the given class and size.
func (m Model) Cost(c Class, size int) float64 {
	switch c {
	case BroadcastSend:
		return m.BroadcastSend.Cost(size)
	case BroadcastRecv:
		return m.BroadcastRecv.Cost(size)
	case P2PSend:
		return m.P2PSend.Cost(size)
	case P2PRecv:
		return m.P2PRecv.Cost(size)
	case Discard:
		return m.Discard.Cost(size)
	default:
		panic(fmt.Sprintf("energy: unknown class %d", int(c)))
	}
}

// acc is one (node, class) accumulator cell. The meter stores integer
// observations — total bytes and message count — and derives every
// energy figure from them on demand, so accumulation commutes exactly:
// merging per-shard meters is integer addition and reproduces a single
// meter's floats bit-for-bit regardless of charge order.
type acc struct {
	sizeSum int64
	count   uint64
}

// Meter accumulates energy spent by a set of nodes, broken down by traffic
// class. It is not safe for concurrent use; each simulation run owns one
// (sharded runs own one per shard and Merge them).
//
// Receive-side charges can also be taken in slot order (Slots,
// ChargeSlot): the radio charges every receiver of a frame, and its
// neighbor index lists them by slot, so their tallies sit in the order
// the index just read instead of scattered over the node-major cells.
// Those tallies are integers like the cells, and every read of the meter
// folds them in first, so what a reader sees is exact whichever way a
// charge was taken.
type Meter struct {
	model Model
	cells []acc // node-major: cells[node*numClasses + class]

	// recv[s] holds the receive-side charges of node slotNode[s] not yet
	// folded into cells; owed is set when any of them may be nonzero.
	recv     []recvTally
	slotNode []int32
	owed     bool
}

// recvTally is one slot's receive-side cells, one column per class that
// recvCol maps.
type recvTally [3]acc

// recvCol maps a receive-side class to its column of a recvTally. The
// send classes map to -1, so charging one by slot fails its bounds check.
var recvCol = [numClasses]int8{BroadcastSend: -1, BroadcastRecv: 0, P2PSend: -1, P2PRecv: 1, Discard: 2}

// NewMeter returns a meter for n nodes using the given model.
func NewMeter(n int, model Model) (*Meter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("energy: meter needs at least one node, got %d", n)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Meter{model: model, cells: make([]acc, n*int(numClasses))}, nil
}

// Model returns the meter's coefficient set.
func (mt *Meter) Model() Model { return mt.model }

// linear returns the model coefficients for a class.
func (m Model) linear(c Class) Linear {
	switch c {
	case BroadcastSend:
		return m.BroadcastSend
	case BroadcastRecv:
		return m.BroadcastRecv
	case P2PSend:
		return m.P2PSend
	case P2PRecv:
		return m.P2PRecv
	case Discard:
		return m.Discard
	default:
		panic(fmt.Sprintf("energy: unknown class %d", int(c)))
	}
}

// Charge records one message of the given class and size against node id
// and returns the energy charged.
func (mt *Meter) Charge(node int, c Class, size int) float64 {
	cell := &mt.cells[node*int(numClasses)+int(c)]
	cell.sizeSum += int64(size)
	cell.count++
	return mt.model.Cost(c, size)
}

// Slots sets the order slot-charged tallies follow: slot s is node
// order[s]. The meter keeps the slice, not a copy; it folds what it owes
// under the order it had before adopting the new one, so a caller that
// reorders a slice it handed over calls Slots with it first. The slot
// tallies are allocated on the first call.
func (mt *Meter) Slots(order []int32) {
	if len(order) != mt.Nodes() {
		panic(fmt.Sprintf("energy: slot order over %d nodes for a meter of %d", len(order), mt.Nodes()))
	}
	mt.fold()
	mt.slotNode = order
	if mt.recv == nil {
		mt.recv = make([]recvTally, len(order))
	}
}

// ChargeSlot records one received message of class c (BroadcastRecv,
// P2PRecv or Discard) and size against the node in slot s of the order
// Slots set.
func (mt *Meter) ChargeSlot(s int, c Class, size int) {
	t := &mt.recv[s][recvCol[c]]
	t.sizeSum += int64(size)
	t.count++
	mt.owed = true
}

// fold adds every slot tally into its node's cells and zeroes it.
func (mt *Meter) fold() {
	if !mt.owed {
		return
	}
	mt.owed = false
	for s := range mt.recv {
		t := &mt.recv[s]
		row := mt.cells[int(mt.slotNode[s])*int(numClasses):]
		for _, c := range [...]Class{BroadcastRecv, P2PRecv, Discard} {
			row[c].sizeSum += t[recvCol[c]].sizeSum
			row[c].count += t[recvCol[c]].count
		}
		*t = recvTally{}
	}
}

// cellCost evaluates one (node, class) cell: M*Σsize + B*count.
func (mt *Meter) cellCost(node int, c Class) float64 {
	cell := mt.cells[node*int(numClasses)+int(c)]
	l := mt.model.linear(c)
	return l.M*float64(cell.sizeSum) + l.B*float64(cell.count)
}

// Nodes returns the meter's node count.
func (mt *Meter) Nodes() int { return len(mt.cells) / int(numClasses) }

// Total returns the network-wide energy spent, in mJ.
func (mt *Meter) Total() float64 {
	mt.fold()
	var total float64
	for id := 0; id < mt.Nodes(); id++ {
		total += mt.Node(id)
	}
	return total
}

// Node returns the energy spent by one node, in mJ.
func (mt *Meter) Node(id int) float64 {
	mt.fold()
	var total float64
	for c := Class(0); c < numClasses; c++ {
		total += mt.cellCost(id, c)
	}
	return total
}

// ByClass returns the energy spent in one traffic class, in mJ.
func (mt *Meter) ByClass(c Class) float64 {
	mt.fold()
	var total float64
	for id := 0; id < mt.Nodes(); id++ {
		total += mt.cellCost(id, c)
	}
	return total
}

// Messages returns the number of messages charged in one traffic class.
func (mt *Meter) Messages(c Class) uint64 {
	mt.fold()
	var total uint64
	for id := 0; id < mt.Nodes(); id++ {
		total += mt.cells[id*int(numClasses)+int(c)].count
	}
	return total
}

// Merge folds another meter's observations into this one. Both meters
// must describe the same node set and model; sharded runs merge their
// per-shard meters at the end of a run.
func (mt *Meter) Merge(o *Meter) error {
	if len(o.cells) != len(mt.cells) {
		return fmt.Errorf("energy: merging meter with %d cells into %d", len(o.cells), len(mt.cells))
	}
	mt.fold()
	o.fold()
	for i := range mt.cells {
		mt.cells[i].sizeSum += o.cells[i].sizeSum
		mt.cells[i].count += o.cells[i].count
	}
	return nil
}

// Reset zeroes all accumulators, slot tallies included; the model, node
// count and slot order are kept.
func (mt *Meter) Reset() {
	mt.fold()
	for i := range mt.cells {
		mt.cells[i] = acc{}
	}
}
