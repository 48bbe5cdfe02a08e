package radio

// Checkpoint support. The channel's serializable state is the per-node
// transmit/receive busy horizons, the beacon observations, and the
// counters; everything else (position epoch cache, spatial grid, reusable
// buffers) is derived and rebuilds lazily on the first query after a
// restore. A snapshot is only valid when no receptions are in flight —
// delivery events carry closures and cannot be serialized — which the
// quiescent-boundary rule upstream guarantees.

import (
	"fmt"

	"precinct/internal/geo"
)

// State is the serializable state of a Channel.
type State struct {
	TxBusyUntil []float64
	// RxBusyUntil is nil exactly when the collision model is off.
	RxBusyUntil []float64
	// BeaconPos/BeaconAt are nil exactly when beaconing is off.
	BeaconPos []geo.Point
	BeaconAt  []float64
	Stats     Stats
}

// StateSnapshot captures the channel's mutable state. It fails when any
// reception is still in flight: the pending delivery closure could not
// be rebuilt, so a snapshot now would lose frames on restore.
func (ch *Channel) StateSnapshot() (State, error) {
	if ch.inFlight != 0 {
		return State{}, fmt.Errorf("radio: %d receptions in flight; not a quiescent boundary", ch.inFlight)
	}
	st := State{
		TxBusyUntil: append([]float64(nil), ch.txBusyUntil...),
		Stats:       ch.stats,
	}
	if ch.rxBusyUntil != nil {
		st.RxBusyUntil = append([]float64(nil), ch.rxBusyUntil...)
	}
	if ch.beaconPos != nil {
		st.BeaconPos = append([]geo.Point(nil), ch.beaconPos...)
		st.BeaconAt = append([]float64(nil), ch.beaconAt...)
	}
	return st, nil
}

// RestoreState overwrites the channel's mutable state, validating that
// the snapshot's shape matches this channel's configuration (node count,
// collision model, beaconing). The position cache and spatial grid are
// left unbuilt; they repopulate on the first neighbor query, which is
// safe because positions are anchored in the mobility model and do not
// depend on when they are asked for.
func (ch *Channel) RestoreState(st State) error {
	n := ch.mob.Len()
	if len(st.TxBusyUntil) != n {
		return fmt.Errorf("radio: snapshot has %d tx horizons, channel has %d nodes", len(st.TxBusyUntil), n)
	}
	if (st.RxBusyUntil != nil) != (ch.rxBusyUntil != nil) {
		return fmt.Errorf("radio: snapshot collision state (%v) does not match config (%v)",
			st.RxBusyUntil != nil, ch.rxBusyUntil != nil)
	}
	if st.RxBusyUntil != nil && len(st.RxBusyUntil) != n {
		return fmt.Errorf("radio: snapshot has %d rx horizons, channel has %d nodes", len(st.RxBusyUntil), n)
	}
	if (st.BeaconPos != nil) != (ch.beaconPos != nil) {
		return fmt.Errorf("radio: snapshot beacon state (%v) does not match config (%v)",
			st.BeaconPos != nil, ch.beaconPos != nil)
	}
	if st.BeaconPos != nil && (len(st.BeaconPos) != n || len(st.BeaconAt) != n) {
		return fmt.Errorf("radio: snapshot has %d/%d beacon entries, channel has %d nodes",
			len(st.BeaconPos), len(st.BeaconAt), n)
	}
	copy(ch.txBusyUntil, st.TxBusyUntil)
	if st.RxBusyUntil != nil {
		copy(ch.rxBusyUntil, st.RxBusyUntil)
	}
	if st.BeaconPos != nil {
		copy(ch.beaconPos, st.BeaconPos)
		copy(ch.beaconAt, st.BeaconAt)
	}
	ch.stats = st.Stats
	ch.inFlight = 0
	// Invalidate the derived caches: the epoch bump orphans every cached
	// position and the remembered neighbor query, epochAt=-1 forces the
	// first query to miss, and an unbuilt grid rebuilds from scratch at
	// that point.
	ch.advanceEpoch()
	ch.epochAt = -1
	ch.grid.invalidate()
	return nil
}
