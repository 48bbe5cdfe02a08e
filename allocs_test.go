package precinct_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"precinct"
)

// TestAllocsPerEvent holds heap allocations per executed event on four
// cells of the scale grid, and the event counts that say the cells still
// are the workload the limits were read on. The simulation replays
// exactly, so its own allocations repeat from run to run, but
// runtime.MemStats.Mallocs also counts what the runtime allocates beside
// it (the garbage collector, timers, the test framework), and that moves
// a sequential cell's reading in the fourth decimal from host to host
// and run to run: 0.0785 against a committed 0.0780 on one. A sharded
// cell adds goroutine bookkeeping of order 1e-4 per event. Each limit's
// allowance below covers that drift many times over.
//
// Each limit is the lower of what the retired bench comparator enforced
// (old: its August 2026 baseline × 1.15 + 0.05) and the latest reading
// (head) with the same allowance. head was last lowered on the three
// sequential cells when a flood record went back on its network's
// freelist with its last message, in place of being held 120 s after
// its last mark, and on the shards=4 cell, whose replicas keep that
// hold, when a record's per-mark expiries became one expiry per record
// (0.1126 → 0.0875).
//
// Not parallel: runtime.MemStats.Mallocs counts the whole process. Not
// under the race detector either: the limits were read without it, and
// instrumentation would turn the 10000-node cell into minutes.
func TestAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are read race-free")
	}
	for _, c := range []struct {
		nodes, shards int
		loss          float64
		events        uint64
		old, head     float64
	}{
		{500, 0, 0, 1202760, 0.324, 0.0314},
		{500, 0, 0.1, 1140020, 0.313, 0.0318},
		{500, 4, 0.1, 1140020, 0.359, 0.0875},
		{10000, 0, 0.3, 12565619, 0.463, 0.0426},
	} {
		t.Run(fmt.Sprintf("n=%d/loss=%g/shards=%d", c.nodes, c.loss, c.shards), func(t *testing.T) {
			if c.nodes > 1000 && testing.Short() {
				t.Skip("large cell skipped under -short")
			}
			s := precinct.ScaleScenarioForTest(c.nodes)
			s.LossRate, s.Shards = c.loss, c.shards
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, stats, err := precinct.RunWithStats(s)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Events != c.events {
				t.Fatalf("executed %d events, want %d: the cell is no longer the workload the limit was read on", stats.Events, c.events)
			}
			got := float64(after.Mallocs-before.Mallocs) / float64(stats.Events)
			if limit := math.Min(c.old, c.head*1.15+0.05); got > limit {
				t.Errorf("%.4f allocs/event, limit %.4f", got, limit)
			}
		})
	}
}

// buildBytesBudget is what one Scenario.Validate of flood_2k's shape
// (2000 nodes at paper density) may allocate: the reading on linux/amd64
// with Go 1.24 once a peer's dynamic cache was built at its first
// admission instead of at setup (a Cache, its victim index and two map
// headers per peer) and sim.RNG stopped keeping a name → stream map
// (4000 entries here, peer/i and mobility/i), 1,272,848 B, rounded up by
// under 4 KB. An array of even 4 B per node (8 KB) allocated at build
// therefore fails here. The budget matters
// because Go's minimum heap goal is 4 MB and the benchmark's setup_s
// times this build in a loop: bytes past the goal buy a collection per
// build (DESIGN.md section 8, "What it weighs"). Per-node state the run
// needs only once it queries neighbors belongs to the first query.
const buildBytesBudget = 1_276_000

// TestBuildBytesBudget holds Scenario.Validate on flood_2k's shape to
// buildBytesBudget. Not parallel and not under the race detector, for
// the reasons TestAllocsPerEvent gives.
func TestBuildBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are read race-free")
	}
	s := precinct.ScaleScenarioForTest(2000)
	s.Duration, s.Warmup = 180, 60
	if err := s.Validate(); err != nil { // warm what is built once per process
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > buildBytesBudget {
		t.Errorf("building flood_2k's shape allocated %d B, budget %d B (%.1f B/node over)",
			got, buildBytesBudget, float64(got-buildBytesBudget)/float64(s.Nodes))
	}
}
