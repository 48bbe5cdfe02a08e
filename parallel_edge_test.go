package precinct_test

import (
	"fmt"
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
	for _, balance := range []string{precinct.ShardBalanceLoad, precinct.ShardBalanceCount} {
		balance := balance
		t.Run(balance, func(t *testing.T) {
			t.Parallel()
			s := edgeScenario()
			s.ShardBalance = balance
			s.Shards = 4
			assign, err := precinct.ShardAssignmentForTest(s)
			if err != nil {
				t.Fatal(err)
			}
			// One fault per shard, every one due at the same instant.
			// Alternating kinds makes the drain order observable: a quit
			// hands keys off, a crash does not.
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
	s.ShardBalance = precinct.ShardBalanceCount
	s.Shards = 3
	assign, err := precinct.ShardAssignmentForTest(s)
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
// flows, per-shard event counts sum to the total, and under the load
// split the recorded per-shard loads cover every peer.
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
	if len(stats.ShardLoads) != 4 {
		t.Fatalf("ShardLoads = %v, want 4 entries under the load split", stats.ShardLoads)
	}
	var load uint64
	for sh, l := range stats.ShardLoads {
		if l == 0 {
			t.Errorf("shard %d was assigned zero load", sh)
		}
		load += l
	}
	// Every peer contributes its probe weight (at least 1) to some shard.
	if load < uint64(s.Nodes) {
		t.Errorf("total assigned load %d < node count %d", load, s.Nodes)
	}

	// The count split records no loads and must also run identically.
	s.ShardBalance = precinct.ShardBalanceCount
	_, stats, err = precinct.RunWithStats(s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardLoads != nil {
		t.Errorf("count split should record no ShardLoads, got %v", stats.ShardLoads)
	}
}

// TestShardAssignmentBalancesLoad feeds shardAssignment a deliberately
// skewed population (via the real probe on a scenario whose traffic is
// uniform, then checking the equal-load property on the recorded
// loads): under the load split, no shard's probe-measured load may
// exceed twice the lightest shard's — far tighter than the worst case
// an equal-count split can produce under skew, and loose enough to be
// stable across probe refinements.
func TestShardAssignmentBalancesLoad(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 5} {
		s := edgeScenario()
		s.Shards = shards
		_, stats, err := precinct.RunWithStats(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.ShardLoads) != shards {
			t.Fatalf("shards=%d: ShardLoads = %v", shards, stats.ShardLoads)
		}
		min, max := stats.ShardLoads[0], stats.ShardLoads[0]
		for _, l := range stats.ShardLoads[1:] {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if min == 0 || max > 2*min {
			t.Errorf("shards=%d: probe loads unbalanced: %v", shards, stats.ShardLoads)
		}
	}
}

// TestWithShardsTransform pins the fuzzgen shard axis: the transform
// must clear the knobs the sharded envelope forbids, alternate balance
// modes by seed, and leave the base draws untouched.
func TestWithShardsTransform(t *testing.T) {
	base := fuzzgen.Expand(3)
	base.BeaconInterval = 2
	base.AdaptiveRegions = true
	for _, shards := range fuzzgen.ShardCounts {
		even := fuzzgen.WithShards(base, shards, 2)
		odd := fuzzgen.WithShards(base, shards, 3)
		if even.Shards != shards || odd.Shards != shards {
			t.Fatalf("shards not applied: %d/%d", even.Shards, odd.Shards)
		}
		if even.BeaconInterval != 0 || even.AdaptiveRegions {
			t.Error("WithShards must clear the forbidden knobs")
		}
		if even.ShardBalance != precinct.ShardBalanceLoad {
			t.Errorf("even seed balance = %q", even.ShardBalance)
		}
		if odd.ShardBalance != precinct.ShardBalanceCount {
			t.Errorf("odd seed balance = %q", odd.ShardBalance)
		}
		want := fmt.Sprintf("%s/shards%d-load", base.Name, shards)
		if even.Name != want {
			t.Errorf("name = %q, want %q", even.Name, want)
		}
	}
}
