package precinct_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
)

// edgeScenario is a small, fast base for the barrier edge-case suite:
// mobile, lossy, with updates, so windows, barrier drains and
// cross-shard traffic all occur within a short horizon.
func edgeScenario() precinct.Scenario {
	s := precinct.DefaultScenario()
	s.Name = "parallel-edge"
	s.Nodes = 24
	s.Duration = 40
	s.Warmup = 5
	s.UpdateInterval = 15
	s.LossRate = 0.1
	return s
}

// TestParallelSimultaneousFaults pins the barrier drain's canonical
// interleaving when several barrier events are due at the same instant
// on distinct shards: one fault per shard, all at the same timestamp,
// must execute in exactly the order the sequential scheduler would
// have used — proven by report and trace identity across modes.
func TestParallelSimultaneousFaults(t *testing.T) {
	// The subtest names the shard split the faults are placed under.
	t.Run("count", func(t *testing.T) {
		s := edgeScenario()
		s.Shards = 4
		assign, _, err := precinct.ShardAssignmentForTest(s)
		if err != nil {
			t.Fatal(err)
		}
		// One fault per shard, every one due at the same instant.
		// Alternating kinds makes the drain order observable: a quit hands
		// keys off, a crash does not.
		kinds := []string{"quit", "crash", "quit", "crash"}
		seen := make(map[int32]bool)
		for id, sh := range assign {
			if seen[sh] {
				continue
			}
			seen[sh] = true
			s.Faults = append(s.Faults, precinct.Fault{At: 12.5, Node: id, Kind: kinds[int(sh)%len(kinds)]})
		}
		if len(s.Faults) != 4 {
			t.Fatalf("expected one fault per shard, got %d", len(s.Faults))
		}
		compareModes(t, s, 2, 4)
	})
}

// TestParallelShardEmptiesMidRun kills every node owned by one shard
// partway through the run: the shard stops doing protocol work (its
// dead peers' recurring timers still tick, but transmit and receive
// nothing), so its windows go empty between sparse timer events while
// the other shards keep running — and the run must stay
// report-identical to sequential throughout. The equal-count split
// makes the targeted shard's membership predictable; the assignment
// helper confirms it.
func TestParallelShardEmptiesMidRun(t *testing.T) {
	s := edgeScenario()
	s.Shards = 3
	assign, _, err := precinct.ShardAssignmentForTest(s)
	if err != nil {
		t.Fatal(err)
	}
	var victims []int
	for id, sh := range assign {
		if sh == 1 {
			victims = append(victims, id)
		}
	}
	if len(victims) != s.Nodes/s.Shards {
		t.Fatalf("equal-count split gave shard 1 %d of %d nodes", len(victims), s.Nodes)
	}
	// Crash the shard's nodes in a short burst (distinct times exercise
	// consecutive barrier drains; the last two share one instant).
	for i, id := range victims {
		at := 10 + 0.25*float64(i)
		if i == len(victims)-1 {
			at = 10 + 0.25*float64(i-1)
		}
		s.Faults = append(s.Faults, precinct.Fault{At: at, Node: id, Kind: "crash"})
	}
	compareModes(t, s, 3)

	// The dead shard must actually have drained: rerun sharded and
	// check the protocol counters recorded empty shard-windows.
	par := s
	par.Shards = 3
	_, stats, err := precinct.RunWithStats(par)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows == 0 {
		t.Fatal("sharded run recorded no windows")
	}
	if stats.EmptyShardWindows == 0 {
		t.Error("killing a whole shard should produce empty shard-windows")
	}
	if len(stats.ShardEvents) != 3 {
		t.Fatalf("ShardEvents = %v, want 3 entries", stats.ShardEvents)
	}
}

// TestParallelRunStats pins the protocol counters RunStats reports for
// sharded runs: windows and barrier drains happen, cross-shard traffic
// flows, and per-shard event counts sum to the total.
func TestParallelRunStats(t *testing.T) {
	s := edgeScenario()
	s.Shards = 4
	res, stats, err := precinct.RunWithStats(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests == 0 {
		t.Fatal("run produced no requests")
	}
	if stats.Windows == 0 || stats.BarrierDrains == 0 {
		t.Errorf("expected windows and barrier drains, got %d / %d", stats.Windows, stats.BarrierDrains)
	}
	if stats.OutboxFlushes == 0 || stats.RemoteDeliveries == 0 {
		t.Errorf("expected cross-shard traffic, got %d flushes / %d deliveries", stats.OutboxFlushes, stats.RemoteDeliveries)
	}
	var sum uint64
	for _, e := range stats.ShardEvents {
		sum += e
	}
	if sum != stats.Events {
		t.Errorf("ShardEvents sum %d != Events %d", sum, stats.Events)
	}
	// The scheduler-cost counts: every fired event was a fan member or had
	// a heap entry of its own, fans make pushes fewer than events, and a
	// sharded run turns exactly its cross-shard broadcast receptions from
	// fan members back into single events.
	seq := s
	seq.Shards = 0
	_, seqStats, err := precinct.RunWithStats(seq)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]precinct.RunStats{"sequential": seqStats, "sharded": stats} {
		if st.FanMembers == 0 || st.HeapPushes >= st.Events || st.HeapPushes < st.Events-st.FanMembers {
			t.Errorf("%s: %d events, %d heap pushes, %d fan members", name, st.Events, st.HeapPushes, st.FanMembers)
		}
	}
	if stats.Events != seqStats.Events || stats.FanMembers >= seqStats.FanMembers ||
		seqStats.FanMembers-stats.FanMembers > stats.RemoteDeliveries {
		t.Errorf("sharded: %d events / %d fan members / %d remote deliveries, sequential %d / %d",
			stats.Events, stats.FanMembers, stats.RemoteDeliveries, seqStats.Events, seqStats.FanMembers)
	}
	// Re-homing passes are counted on the replica of the peer that runs
	// them; summed, the sharded run made the sequential run's passes and
	// skipped the same ones.
	if seqStats.RehomePasses == 0 || seqStats.RehomeSkips == 0 ||
		stats.RehomePasses != seqStats.RehomePasses || stats.RehomeSkips != seqStats.RehomeSkips {
		t.Errorf("sharded: %d re-homing passes / %d skipped, sequential %d / %d",
			stats.RehomePasses, stats.RehomeSkips, seqStats.RehomePasses, seqStats.RehomeSkips)
	}
}

// TestParallelShardAssignmentCountSplit pins the one shard split: on a
// population no entry of fuzzgen.ShardCounts divides, every shard owns
// ⌊N/S⌋ or ⌈N/S⌉ peers, and the shard index never decreases along the
// x-sorted peer order (ties by y, then id), so each shard is one strip.
func TestParallelShardAssignmentCountSplit(t *testing.T) {
	s := edgeScenario()
	s.Nodes = 23
	for _, shards := range fuzzgen.ShardCounts {
		if s.Nodes%shards == 0 {
			t.Fatalf("%d shards divide %d nodes; pick a population no count divides", shards, s.Nodes)
		}
		s.Shards = shards
		assign, pos, err := precinct.ShardAssignmentForTest(s)
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, shards)
		for _, sh := range assign {
			sizes[sh]++
		}
		lo, hi := s.Nodes/shards, s.Nodes/shards+1
		for sh, n := range sizes {
			if n < lo || n > hi {
				t.Errorf("shards=%d: shard %d owns %d peers, want %d or %d", shards, sh, n, lo, hi)
			}
		}
		order := make([]int, s.Nodes)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			pa, pb := pos[order[a]], pos[order[b]]
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return order[a] < order[b]
		})
		for i := 1; i < len(order); i++ {
			if assign[order[i]] < assign[order[i-1]] {
				t.Fatalf("shards=%d: shard index falls from %d to %d along x", shards, assign[order[i-1]], assign[order[i]])
			}
		}
	}
}

// TestWithShardsTransform pins the fuzzgen shard axis: the transform
// must clear the knob the sharded envelope forbids, tag the name with
// the shard count, and leave the base draws untouched.
func TestWithShardsTransform(t *testing.T) {
	base := fuzzgen.Expand(3)
	base.BeaconInterval = 2
	for _, shards := range fuzzgen.ShardCounts {
		v := fuzzgen.WithShards(base, shards)
		if v.Shards != shards {
			t.Fatalf("shards not applied: %d", v.Shards)
		}
		if v.BeaconInterval != 0 {
			t.Error("WithShards must clear the forbidden knob")
		}
		if want := fmt.Sprintf("%s/shards%d", base.Name, shards); v.Name != want {
			t.Errorf("name = %q, want %q", v.Name, want)
		}
		v.Name, v.Shards, v.BeaconInterval = base.Name, base.Shards, base.BeaconInterval
		if !reflect.DeepEqual(v, base) {
			t.Error("WithShards changed a base draw")
		}
	}
}
