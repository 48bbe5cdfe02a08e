package precinct

import (
	"strings"
	"testing"
)

// clampForFuzz bounds the fields that size a run, so every input that
// validates also finishes in milliseconds. Values that are already small
// (including zero and negative ones, which exercise the error paths) are
// left alone; a trace path is pointed at the committed sample, so the
// fuzzer never reads an arbitrary file.
func clampForFuzz(s *Scenario) {
	atMost := func(p *int, hi int) {
		if *p > hi {
			*p = hi
		}
	}
	atLeast := func(p *float64, lo float64) {
		if *p > 0 && *p < lo {
			*p = lo
		}
	}
	atMost(&s.Nodes, 12)
	atMost(&s.Items, 50)
	atMost(&s.Regions, 16)
	atMost(&s.Shards, 3)
	atMost(&s.Replicas, 3)
	if s.Duration > 30 {
		s.Duration = 30
	}
	if s.MaxSpeed > 50 {
		s.MaxSpeed = 50
	}
	for _, p := range []*float64{&s.RequestInterval, &s.UpdateInterval, &s.BeaconInterval, &s.ChurnInterval} {
		atLeast(p, 1)
	}
	if len(s.Faults) > 8 {
		s.Faults = s.Faults[:8]
	}
}

// FuzzScenario feeds arbitrary bytes through the scenario file path:
// LoadScenario, Validate and, for a scenario that validates, a Run with
// its size clamped small. Each must return an error or finish; none may
// panic.
func FuzzScenario(f *testing.F) {
	for _, in := range []string{
		`{}`,
		`{"Nodes":10,"Duration":20,"Warmup":5}`,
		// Non-finite numbers: JSON cannot spell NaN, and 1e999
		// overflows float64.
		`{"Duration":NaN}`,
		`{"Duration":1e999}`,
		`{"Duration":"Inf"}`,
		`{"GDLDWeights":{"WR":-1e999}}`,
		// Retired keys. The hotspot grids once crashed Validate: a million
		// cells a side ran out of memory building the per-cell hotsets, and
		// 3037000500 overflowed Grid*Grid into a negative slice length.
		`{"Workload":"hotspot","WorkloadCfg":{"HotspotGrid":1000000}}`,
		`{"Workload":"hotspot","WorkloadCfg":{"HotspotGrid":3037000500}}`,
		`{"WorkloadCfg":{"FlashAt":-1e999}}`,
		`{"ShardBalance":"load"}`,
		`{"Mobile":false}`,
		`{"Replication":true}`,
		`{"CacheBytes":4096}`,
		`{"LinearRadio":true}`,
		`{"VoronoiRegions":true}`,
		`{"AdaptiveRegions":true}`,
		`{"Collisions":true}`,
		// A pause below one ulp of the clock once hung the waypoint
		// model; clamped, this is a 12-node, 30 s run.
		`{"Pause":1e-300,"MaxSpeed":50,"AreaSide":100,"Warmup":5}`,
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := LoadScenario(strings.NewReader(in))
		if err != nil {
			return
		}
		clampForFuzz(&s)
		if s.Validate() != nil {
			return
		}
		if _, err := Run(s); err != nil {
			t.Fatalf("Run failed on a scenario that validates: %v\n%s", err, in)
		}
	})
}
