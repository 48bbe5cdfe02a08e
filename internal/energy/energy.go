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
//
// The paper reads the model as network energy per request, and so does
// every report here: the Meter does network accounting by traffic class,
// one tally per class and nothing per node.
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
// The product is rounded on its own, so no target fuses it with the
// addition into one multiply-add.
func (l Linear) Cost(size int) float64 { return float64(l.M*float64(size)) + l.B }

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
	allZero := true
	for c := Class(0); c < numClasses; c++ {
		l := m.linear(c)
		if l.M < 0 || l.B < 0 {
			return fmt.Errorf("energy: %s has negative coefficient (m=%v, b=%v)", c, l.M, l.B)
		}
		if l.M > 0 || l.B > 0 {
			allZero = false
		}
	}
	if allZero {
		return fmt.Errorf("energy: all coefficients zero; model would measure nothing")
	}
	return nil
}

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

// acc is one traffic class's accumulator. The meter stores integer
// observations — total bytes and message count — and derives every
// energy figure from them on demand, so accumulation commutes exactly:
// merging per-shard meters is integer addition and reproduces a single
// meter's floats bit-for-bit regardless of charge order.
type acc struct {
	sizeSum int64
	count   uint64
}

// Meter accumulates the energy a network spends, by traffic class. It is
// not safe for concurrent use; each simulation run owns one (sharded runs
// own one per shard and Merge them).
type Meter struct {
	model Model
	cells [numClasses]acc
}

// NewMeter returns a meter for a network of n nodes using the given
// model.
func NewMeter(n int, model Model) (*Meter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("energy: meter needs at least one node, got %d", n)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Meter{model: model}, nil
}

// Charge records one message of the given class and size, sent or
// received by node. The meter keeps network totals only: node names the
// payer and is not stored.
func (mt *Meter) Charge(node int, c Class, size int) {
	cell := &mt.cells[c]
	cell.sizeSum += int64(size)
	cell.count++
}

// Total returns the network-wide energy spent, in mJ: the sum of ByClass
// over the classes.
func (mt *Meter) Total() float64 {
	var total float64
	for c := Class(0); c < numClasses; c++ {
		total += mt.ByClass(c)
	}
	return total
}

// ByClass returns the energy spent in one traffic class, in mJ:
// M*Σsize + B*count. Each product is rounded on its own, so no target
// fuses them into one multiply-add.
func (mt *Meter) ByClass(c Class) float64 {
	cell := mt.cells[c]
	l := mt.model.linear(c)
	return float64(l.M*float64(cell.sizeSum)) + float64(l.B*float64(cell.count))
}

// Messages returns the number of messages charged in one traffic class.
func (mt *Meter) Messages(c Class) uint64 { return mt.cells[c].count }

// Merge adds another meter's observations into this one. Both meters
// must use the same model; sharded runs merge their per-shard meters at
// the end of a run.
func (mt *Meter) Merge(o *Meter) error {
	if o.model != mt.model {
		return fmt.Errorf("energy: merging a meter of model %+v into one of %+v", o.model, mt.model)
	}
	for c := range mt.cells {
		mt.cells[c].sizeSum += o.cells[c].sizeSum
		mt.cells[c].count += o.cells[c].count
	}
	return nil
}

// Reset zeroes every class's tally; the model is kept.
func (mt *Meter) Reset() { mt.cells = [numClasses]acc{} }
