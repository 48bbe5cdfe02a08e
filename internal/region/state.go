package region

// Checkpoint support: the region table's full state is small and has no
// unserializable parts, so the snapshot carries it verbatim and the
// restore path rebuilds a Table from scratch rather than patching a
// rebuilt one — table version history can diverge arbitrarily from the
// initial partition (Separate/Merge/Add/Delete), so there is nothing to
// patch against.

import (
	"fmt"

	"precinct/internal/geo"
)

// TableState is the serializable state of one Table.
type TableState struct {
	Area    geo.Rect
	Regions []Region // sorted by ID
	NextID  ID
	Version uint64
	Voronoi bool
}

// State captures the table.
func (t *Table) State() TableState {
	st := TableState{
		Area:    t.area,
		Regions: make([]Region, len(t.regions)),
		NextID:  t.nextID,
		Version: t.version,
		Voronoi: t.voronoi,
	}
	copy(st.Regions, t.regions)
	return st
}

// FromState rebuilds a Table from a snapshot, validating the structural
// invariants so a corrupt snapshot cannot produce a malformed partition.
func FromState(st TableState) (*Table, error) {
	t := &Table{
		area:    st.Area,
		regions: make([]Region, len(st.Regions)),
		nextID:  st.NextID,
		version: st.Version,
		voronoi: st.Voronoi,
	}
	copy(t.regions, st.Regions)
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("region: snapshot table invalid: %w", err)
	}
	t.reindex()
	return t, nil
}
