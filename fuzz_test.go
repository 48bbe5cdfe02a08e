package precinct

import (
	"strings"
	"testing"
)

// hotspotGridInputs are scenario files whose hotspot grid once crashed
// Validate: a million cells a side ran out of memory building the
// per-cell hotsets, and 3037000500 overflowed Grid*Grid into a negative
// slice length.
var hotspotGridInputs = []string{
	`{"Workload":"hotspot","WorkloadCfg":{"HotspotGrid":1000000}}`,
	`{"Workload":"hotspot","WorkloadCfg":{"HotspotGrid":3037000500}}`,
}

func TestHotspotGridBounded(t *testing.T) {
	for _, in := range hotspotGridInputs {
		s, err := LoadScenario(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "hotspot grid") {
			t.Errorf("%s: Validate err = %v", in, err)
		}
		if _, err := Run(s); err == nil {
			t.Errorf("%s: Run accepted it", in)
		}
	}
}

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
	atMost(&s.WorkloadCfg.FlashHotset, 50)
	atMost(&s.WorkloadCfg.HotspotHotset, 50)
	atMost(&s.WorkloadCfg.ChurnSwaps, 50)
	if s.Duration > 30 {
		s.Duration = 30
	}
	if s.MaxSpeed > 50 {
		s.MaxSpeed = 50
	}
	for _, p := range []*float64{&s.RequestInterval, &s.UpdateInterval, &s.BeaconInterval,
		&s.AdaptiveInterval, &s.ChurnInterval, &s.WorkloadCfg.ChurnEvery} {
		atLeast(p, 1)
	}
	if len(s.Faults) > 8 {
		s.Faults = s.Faults[:8]
	}
	if s.TracePath != "" {
		s.TracePath = "internal/workload/testdata/sample_trace.csv"
	}
}

// FuzzScenario feeds arbitrary bytes through the scenario file path:
// LoadScenario, Validate and, for a scenario that validates, a Run with
// its size clamped small. Each must return an error or finish; none may
// panic.
func FuzzScenario(f *testing.F) {
	for _, in := range hotspotGridInputs {
		f.Add(in)
	}
	for _, in := range []string{
		`{}`,
		`{"Nodes":10,"Duration":20,"Warmup":5}`,
		// Non-finite numbers: JSON cannot spell NaN, and 1e999
		// overflows float64.
		`{"Duration":NaN}`,
		`{"Duration":1e999}`,
		`{"Duration":"Inf"}`,
		`{"WorkloadCfg":{"FlashAt":-1e999}}`,
		// Retired keys.
		`{"Mobile":false}`,
		`{"Replication":true}`,
		`{"CacheBytes":4096}`,
		`{"LinearRadio":true}`,
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
