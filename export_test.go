package precinct

import (
	"precinct/internal/cache"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/trace"
)

// ShardAssignmentForTest exposes the peer→shard split a sharded run of
// the scenario would use, so tests can aim faults at one shard's whole
// node set. It rebuilds the world the same way buildParallel does, so
// the returned assignment matches the real run's exactly.
func ShardAssignmentForTest(s Scenario) ([]int32, error) {
	var weights []uint64
	if s.shardBalanceMode() == ShardBalanceLoad {
		w, err := measureShardLoad(s)
		if err != nil {
			return nil, err
		}
		weights = w
	}
	b, err := s.build()
	if err != nil {
		return nil, err
	}
	return shardAssignment(b, s.Shards, weights), nil
}

// ScaleScenarioForTest exposes the scale grid's cell constructor, so the
// allocation gate runs the cells the grid prints.
var ScaleScenarioForTest = scaleScenario

// ObservedRun is everything a sequential run leaves behind that a test
// can hold a second run to: the Result, the complete event trace, every
// peer's final static store (by node ID) and the re-homing pass counts.
type ObservedRun struct {
	Result       Result
	Trace        []trace.Event
	Stores       [][]cache.StoredItem
	RehomePasses uint64
	RehomeSkips  uint64
}

// RunObservedForTest executes the scenario traced into memory, with the
// probe that probeFor builds for the assembled network attached.
func RunObservedForTest(s Scenario, probeFor func(*node.Network) node.Probe) (ObservedRun, error) {
	buf := &trace.Buffer{}
	b, err := s.buildTraced(buf)
	if err != nil {
		return ObservedRun{}, err
	}
	b.network.SetProbe(probeFor(b.network))
	rep := b.network.Run(b.scenario.Duration)
	out := ObservedRun{Trace: buf.Events, Result: b.result(rep)}
	for i := 0; i < b.network.Peers(); i++ {
		st := b.network.Peer(radio.NodeID(i)).Store()
		items := []cache.StoredItem{}
		for _, k := range st.Keys() {
			it, _ := st.Get(k)
			items = append(items, *it)
		}
		out.Stores = append(out.Stores, items)
	}
	out.RehomePasses, out.RehomeSkips = b.network.RehomeCounts()
	return out, nil
}
