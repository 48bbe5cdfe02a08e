package precinct_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/trace"
	"precinct/internal/workload"
)

// TestRehomePassesIndependentOfUpdateRate runs the benchmark's paper_80
// shape at four update rates. Where copies live follows from mobility and
// the partition, which no update touches, so the number of re-homing
// passes that run in full must not depend on how often values are
// written: a write counter that finds its way back into a peer's rehome
// mark fails here, without a clock.
func TestRehomePassesIndependentOfUpdateRate(t *testing.T) {
	var passes, checks, applied uint64
	for i, interval := range []float64{0, 60, 15, 5} {
		s := precinct.DefaultScenario()
		s.Consistency = "push-adaptive-pull"
		s.UpdateInterval = interval
		s.Duration, s.Warmup = 400, 50
		res, stats, err := precinct.RunWithStats(s)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("update interval %2.0f s: %d updates applied, %d of %d passes ran in full",
			interval, res.Protocol.UpdatesApplied, stats.RehomePasses, stats.RehomePasses+stats.RehomeSkips)
		if i == 0 {
			passes, checks = stats.RehomePasses, stats.RehomePasses+stats.RehomeSkips
			if res.Protocol.UpdatesApplied != 0 {
				t.Fatalf("the read-only run applied %d updates", res.Protocol.UpdatesApplied)
			}
			if passes == 0 || passes*10 > checks {
				t.Fatalf("read-only: %d of %d passes ran in full, want a few and under a tenth", passes, checks)
			}
			continue
		}
		if res.Protocol.UpdatesApplied <= applied {
			t.Errorf("update interval %v s applied %d updates, no more than the slower rate's %d",
				interval, res.Protocol.UpdatesApplied, applied)
		}
		applied = res.Protocol.UpdatesApplied
		if stats.RehomePasses != passes || stats.RehomePasses+stats.RehomeSkips != checks {
			t.Errorf("update interval %v s: %d of %d passes ran in full, read-only %d of %d",
				interval, stats.RehomePasses, stats.RehomePasses+stats.RehomeSkips, passes, checks)
		}
	}
}

// rehomeWitness is a Probe that tells skipped re-homing passes from full
// ones by the network's counts and records whether a skip ever followed a
// value write to the same peer's store. With forget set it is the
// never-skip oracle: after every pass it removes and re-inserts one held
// copy, a custody change by Store's contract that leaves the contents as
// they were, so the peer's next check runs the pass in full as every
// check did before passes could be skipped.
type rehomeWitness struct {
	net    *node.Network
	forget bool

	skips            uint64
	wrote            map[radio.NodeID]bool // a value written since the peer's last full pass
	skipsAfterWrites int
}

func (*rehomeWitness) OnCacheAdmit(radio.NodeID, region.ID, region.ID, workload.Key) {}

func (w *rehomeWitness) OnTTRSmoothed(id radio.NodeID, _ workload.Key, _, _, _, _ float64) {
	w.wrote[id] = true
}

func (w *rehomeWitness) AfterRehome(p *node.Peer, evacuate bool) {
	_, skips := w.net.RehomeCounts()
	skipped := skips != w.skips
	w.skips = skips
	switch {
	case !skipped:
		delete(w.wrote, p.ID())
	case w.wrote[p.ID()]:
		w.skipsAfterWrites++
	}
	if !w.forget || evacuate {
		return
	}
	st := p.Store()
	if keys := st.Keys(); len(keys) > 0 {
		it, _ := st.Get(keys[0])
		held := *it
		st.Remove(held.Key)
		st.Put(held)
	}
}

// rehomeOracleScenario takes a fuzzgen scenario and turns on, by seed,
// what the skip must survive: updates under each consistency scheme in
// turn, waypoint mobility, churn with graceful quits, adaptive regions
// and a second replica region. The seeds' own fault schedules supply
// crashes, quits and revives.
func rehomeOracleScenario(seed int64) precinct.Scenario {
	s := fuzzgen.Expand(seed)
	s.Consistency = []string{"push-adaptive-pull", "plain-push", "pull-every-time"}[seed%3]
	s.UpdateInterval = 10 + float64(seed%4)*5
	s.Replicas = 1
	if seed%2 == 0 {
		s.MobilityModel = "waypoint"
		s.MaxSpeed = 12
	}
	if seed%3 == 0 {
		s.Replicas = 2
	}
	if seed%4 == 0 {
		s.ChurnInterval, s.ChurnDowntime, s.ChurnGraceful = 30, 20, 0.5
	}
	if seed%4 == 1 {
		s.VoronoiRegions, s.AdaptiveRegions = false, true
	}
	return s
}

// TestRehomeSkipMatchesNeverSkipping holds every run that skips clean
// re-homing passes to the same run with the skip defeated: same Result,
// same trace (handoffs included), same final stores.
func TestRehomeSkipMatchesNeverSkipping(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 6
	}
	var handoffs, skipsAfterWrites, faults atomic.Int64
	covered := make(map[string]bool)
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s := rehomeOracleScenario(seed)
			covered[s.Consistency] = true
			covered["waypoint"] = covered["waypoint"] || s.MobilityModel == "waypoint"
			covered["graceful churn"] = covered["graceful churn"] || s.ChurnInterval > 0 && s.ChurnGraceful > 0
			covered["adaptive regions"] = covered["adaptive regions"] || s.AdaptiveRegions
			covered["two replica regions"] = covered["two replica regions"] || s.Replicas == 2
			t.Run(fmt.Sprintf("%s/%s", s.Name, s.Consistency), func(t *testing.T) {
				t.Parallel()
				observe := func(forget bool) (precinct.ObservedRun, *rehomeWitness) {
					witness := &rehomeWitness{forget: forget, wrote: make(map[radio.NodeID]bool)}
					run, err := precinct.RunObservedForTest(s, func(n *node.Network) node.Probe {
						witness.net = n
						return witness
					})
					if err != nil {
						t.Fatal(err)
					}
					return run, witness
				}
				skipping, witness := observe(false)
				skipsAfterWrites.Add(int64(witness.skipsAfterWrites))
				oracle, _ := observe(true)

				if oracle.RehomeSkips != 0 {
					t.Fatalf("the oracle run skipped %d passes", oracle.RehomeSkips)
				}
				if skipping.RehomeSkips == 0 ||
					skipping.RehomePasses+skipping.RehomeSkips != oracle.RehomePasses {
					t.Fatalf("%d full + %d skipped passes against the oracle's %d",
						skipping.RehomePasses, skipping.RehomeSkips, oracle.RehomePasses)
				}
				requireSameResult(t, "skipping against never skipping", skipping.Result, oracle.Result)
				if !reflect.DeepEqual(skipping.Stores, oracle.Stores) {
					t.Error("final stores differ")
				}
				if !reflect.DeepEqual(skipping.Trace, oracle.Trace) {
					t.Errorf("traces differ (%d and %d events)", len(skipping.Trace), len(oracle.Trace))
				}
				for _, e := range skipping.Trace {
					switch e.Kind {
					case trace.Handoff:
						handoffs.Add(1)
					case trace.NodeCrashed, trace.NodeQuit, trace.NodeRevived:
						faults.Add(1)
					}
				}
			})
		}
	})
	for _, feature := range []string{"push-adaptive-pull", "plain-push", "pull-every-time",
		"waypoint", "graceful churn", "adaptive regions", "two replica regions"} {
		if !covered[feature] {
			t.Errorf("no seed of the set runs with %s", feature)
		}
	}
	if handoffs.Load() == 0 || faults.Load() == 0 {
		t.Errorf("%d handoffs and %d crashes, quits and revives traced: nothing to compare", handoffs.Load(), faults.Load())
	}
	if skipsAfterWrites.Load() == 0 {
		t.Error("no skipped pass followed a value write: the runs never met the case the skip exists for")
	}
}
