package mobility

// Checkpoint support. A mobility snapshot captures each node's anchor
// state — position, anchor time, and the current leg/step parameters —
// but NOT the per-node random streams: those live in the simulation's
// RNG registry (sim.RNG) and are captured there. Because positions are
// anchored (see the Model contract), a restored run that queries
// positions in a different pattern than the original still observes
// bit-identical trajectories.

import (
	"fmt"

	"precinct/internal/geo"
)

// Model kind tags for State.Kind.
const (
	KindStatic      = "static"
	KindWaypoint    = "waypoint"
	KindWalk        = "walk"
	KindGaussMarkov = "gauss-markov"
)

// NodeState is the serializable per-node trajectory state: a union over
// the models' anchor fields. Unused fields are zero for a given Kind.
type NodeState struct {
	Pos  geo.Point
	At   float64
	Seen float64

	// Waypoint fields.
	Dest       geo.Point
	Speed      float64
	PauseUntil float64

	// Walk fields (Speed unused; the velocity vector carries it).
	Vel   geo.Point
	Until float64

	// Gauss-Markov fields (Speed shared with waypoint).
	Direction float64
	NextDraw  float64
}

// State is the serializable state of one mobility model.
type State struct {
	Kind  string
	Nodes []NodeState
}

// Stateful is implemented by every mobility model that supports
// checkpointing.
type Stateful interface {
	Model
	StateSnapshot() State
	RestoreState(State) error
}

// checkState validates a snapshot's shape against a live model.
func checkState(st State, kind string, n int) error {
	if st.Kind != kind {
		return fmt.Errorf("mobility: snapshot is for model %q, live model is %q", st.Kind, kind)
	}
	if len(st.Nodes) != n {
		return fmt.Errorf("mobility: snapshot has %d nodes, live model has %d", len(st.Nodes), n)
	}
	return nil
}

// StateSnapshot implements Stateful. Static positions are configuration,
// but they are captured anyway so a restore can verify the rebuilt
// placement matches the captured one.
func (s *Static) StateSnapshot() State {
	st := State{Kind: KindStatic, Nodes: make([]NodeState, len(s.pos))}
	for i, p := range s.pos {
		st.Nodes[i] = NodeState{Pos: p}
	}
	return st
}

// RestoreState implements Stateful.
func (s *Static) RestoreState(st State) error {
	if err := checkState(st, KindStatic, len(s.pos)); err != nil {
		return err
	}
	for i := range s.pos {
		if !s.pos[i].Equal(st.Nodes[i].Pos) {
			return fmt.Errorf("mobility: static node %d rebuilt at %v but snapshot says %v",
				i, s.pos[i], st.Nodes[i].Pos)
		}
	}
	return nil
}

// StateSnapshot implements Stateful.
func (w *Waypoint) StateSnapshot() State {
	st := State{Kind: KindWaypoint, Nodes: make([]NodeState, len(w.nodes))}
	for i := range w.nodes {
		nd := &w.nodes[i]
		st.Nodes[i] = NodeState{
			Pos: nd.pos, At: nd.at, Seen: nd.seen,
			Dest: nd.dest, Speed: nd.speed, PauseUntil: nd.pauseUntil,
		}
	}
	return st
}

// RestoreState implements Stateful. The per-node streams keep their live
// identity (restored separately through sim.RNG); the per-leg constants
// are not on the wire and are re-derived from the restored anchor.
func (w *Waypoint) RestoreState(st State) error {
	if err := checkState(st, KindWaypoint, len(w.nodes)); err != nil {
		return err
	}
	for i := range w.nodes {
		nd, s := &w.nodes[i], st.Nodes[i]
		nd.pos, nd.at, nd.seen = s.Pos, s.At, s.Seen
		nd.dest, nd.speed, nd.pauseUntil = s.Dest, s.Speed, s.PauseUntil
		nd.anchorLeg()
	}
	return nil
}

// StateSnapshot implements Stateful.
func (w *Walk) StateSnapshot() State {
	st := State{Kind: KindWalk, Nodes: make([]NodeState, len(w.nodes))}
	for i := range w.nodes {
		nd := &w.nodes[i]
		st.Nodes[i] = NodeState{
			Pos: nd.pos, At: nd.at, Seen: nd.seen,
			Vel: nd.vel, Until: nd.until,
		}
	}
	return st
}

// RestoreState implements Stateful.
func (w *Walk) RestoreState(st State) error {
	if err := checkState(st, KindWalk, len(w.nodes)); err != nil {
		return err
	}
	for i := range w.nodes {
		nd, s := &w.nodes[i], st.Nodes[i]
		nd.pos, nd.at, nd.seen = s.Pos, s.At, s.Seen
		nd.vel, nd.until = s.Vel, s.Until
	}
	return nil
}

// StateSnapshot implements Stateful.
func (g *GaussMarkov) StateSnapshot() State {
	st := State{Kind: KindGaussMarkov, Nodes: make([]NodeState, len(g.nodes))}
	for i := range g.nodes {
		nd := &g.nodes[i]
		st.Nodes[i] = NodeState{
			Pos: nd.pos, At: nd.at,
			Speed: nd.speed, Direction: nd.direction, NextDraw: nd.nextDraw,
		}
	}
	return st
}

// RestoreState implements Stateful.
func (g *GaussMarkov) RestoreState(st State) error {
	if err := checkState(st, KindGaussMarkov, len(g.nodes)); err != nil {
		return err
	}
	for i := range g.nodes {
		nd, s := &g.nodes[i], st.Nodes[i]
		nd.pos, nd.at = s.Pos, s.At
		nd.speed, nd.direction, nd.nextDraw = s.Speed, s.Direction, s.NextDraw
	}
	return nil
}
