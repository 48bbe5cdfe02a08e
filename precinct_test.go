package precinct

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"precinct/internal/sim"
)

// quickScenario is a small, fast configuration for tests.
func quickScenario() Scenario {
	s := DefaultScenario()
	s.Nodes = 36
	s.Items = 200
	s.Duration = 400
	s.Warmup = 100
	s.Seed = 7
	return s
}

func TestDefaultScenarioValidates(t *testing.T) {
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioValidation(t *testing.T) {
	mutations := []func(*Scenario){
		func(s *Scenario) { s.Nodes = 0 },
		func(s *Scenario) { s.AreaSide = 0 },
		func(s *Scenario) { s.Duration = 0 },
		func(s *Scenario) { s.Warmup = s.Duration },
		func(s *Scenario) { s.Regions = 0 },
		func(s *Scenario) { s.Items = 0 },
		func(s *Scenario) { s.Retrieval = "carrier-pigeon" },
		func(s *Scenario) { s.Consistency = "eventual-ish" },
		func(s *Scenario) { s.Policy = "random" },
		func(s *Scenario) { s.ZipfTheta = -1 },
		func(s *Scenario) { s.RequestInterval = 0 },
		func(s *Scenario) { s.MaxSpeed = 0 },
		func(s *Scenario) { s.TTRAlpha = 1.5 },
	}
	for i, m := range mutations {
		s := DefaultScenario()
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// eachFloat visits every float64 reachable from v through struct fields
// and slice elements, with its path from v ("Duration", "Faults[1].At").
func eachFloat(v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		visit(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachFloat(v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachFloat(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	}
}

// TestNonFiniteScenarioRejected: a NaN passes every `<` range check and
// an infinite Duration never ends, so Validate must reject a non-finite
// value in any float64 of the scenario, nested parameters included, and
// name the field.
func TestNonFiniteScenarioRejected(t *testing.T) {
	base := func() Scenario {
		s := DefaultScenario()
		s.Faults = []Fault{{At: 10, Node: 1, Kind: "crash"}, {At: 20, Node: 2, Kind: "quit"}}
		return s
	}
	var paths []string
	s := base()
	eachFloat(reflect.ValueOf(&s).Elem(), "", func(path string, _ reflect.Value) { paths = append(paths, path) })
	if len(paths) < 23 {
		t.Fatalf("walked only %d float fields: %v", len(paths), paths)
	}
	for k, want := range paths {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := base()
			n := 0
			eachFloat(reflect.ValueOf(&s).Elem(), "", func(_ string, f reflect.Value) {
				if n == k {
					f.SetFloat(bad)
				}
				n++
			})
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), want+" must be finite") {
				t.Errorf("%s = %v: err = %v", want, bad, err)
			}
		}
	}

	s = base()
	v := reflect.ValueOf(&s).Elem()
	if allocs := testing.AllocsPerRun(100, func() { nonFinite(v) }); allocs != 0 {
		t.Errorf("a clean walk allocates %.0f objects, want 0", allocs)
	}
}

func TestRunProducesActivity(t *testing.T) {
	res, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if r.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if float64(r.Failures)/float64(r.Requests) > 0.3 {
		t.Errorf("excessive failures: %+v", r)
	}
	if r.EnergyPerRequest <= 0 {
		t.Error("no energy accounted")
	}
	if res.Radio.BroadcastFrames == 0 || res.Radio.UnicastFrames == 0 {
		t.Errorf("radio silent: %+v", res.Radio)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.String() != b.Report.String() {
		t.Errorf("same scenario, different reports:\n%v\n%v", a.Report, b.Report)
	}
	if a.Report.MeanLatency != b.Report.MeanLatency || a.Report.Requests != b.Report.Requests {
		t.Errorf("nondeterministic run: %+v vs %+v", a.Report, b.Report)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s1 := quickScenario()
	s2 := quickScenario()
	s2.Seed = 8
	a, err := Run(s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Requests == b.Report.Requests && a.Report.MeanLatency == b.Report.MeanLatency {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestCacheFractionSizesCache(t *testing.T) {
	s := quickScenario()
	s.CacheFraction = -1 // disable dynamic caching
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Local hits can still come from the static store (peers requesting
	// keys they hold authoritatively), but the byte hit ratio should
	// clearly improve once dynamic caching is enabled.
	s.CacheFraction = 0.05
	res2, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.ByteHitRatio <= res.Report.ByteHitRatio {
		t.Errorf("caching did not improve byte hit ratio: %v (cache) vs %v (none)",
			res2.Report.ByteHitRatio, res.Report.ByteHitRatio)
	}
	if res2.Report.ByClass["local"]+res2.Report.ByClass["regional"] <=
		res.Report.ByClass["local"]+res.Report.ByClass["regional"] {
		t.Errorf("caching did not add cache hits: %v vs %v", res2.Report.ByClass, res.Report.ByClass)
	}
}

func TestSweepMatchesSequentialRuns(t *testing.T) {
	s1 := quickScenario()
	s2 := quickScenario()
	s2.Policy = "gd-size"
	s2.Name = "gd-size"
	seq1, err := Run(s1)
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep([]Scenario{s1, s2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if par[0].Report.MeanLatency != seq1.Report.MeanLatency {
		t.Error("parallel run 0 differs from sequential")
	}
	if par[1].Report.MeanLatency != seq2.Report.MeanLatency {
		t.Error("parallel run 1 differs from sequential")
	}
}

func TestSweepEmpty(t *testing.T) {
	res, err := Sweep(nil, 4)
	if err != nil || res != nil {
		t.Errorf("Sweep(nil) = %v, %v", res, err)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	bad := quickScenario()
	bad.Nodes = -1
	if _, err := Sweep([]Scenario{quickScenario(), bad}, 2); err == nil {
		t.Error("sweep with invalid scenario succeeded")
	}
}

func TestReplicate(t *testing.T) {
	s := quickScenario()
	s.Duration = 300
	results, mean, err := Replicate(s, []int64{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if mean.Requests == 0 {
		t.Error("mean report empty")
	}
	// The mean latency must lie within the min/max of the replicas.
	lo, hi := results[0].Report.MeanLatency, results[0].Report.MeanLatency
	for _, r := range results[1:] {
		if r.Report.MeanLatency < lo {
			lo = r.Report.MeanLatency
		}
		if r.Report.MeanLatency > hi {
			hi = r.Report.MeanLatency
		}
	}
	if mean.MeanLatency < lo-1e-12 || mean.MeanLatency > hi+1e-12 {
		t.Errorf("mean latency %v outside [%v, %v]", mean.MeanLatency, lo, hi)
	}
	if _, _, err := Replicate(s, nil, 1); err == nil {
		t.Error("Replicate without seeds accepted")
	}
}

func TestMeanReportEmpty(t *testing.T) {
	if got := MeanReport(nil); got.Requests != 0 {
		t.Errorf("MeanReport(nil) = %+v", got)
	}
}

func TestStaticScenario(t *testing.T) {
	s := quickScenario()
	s.MobilityModel = "static"
	s.AreaSide = 600
	s.Nodes = 40
	s.Warmup = 0
	s.Duration = 300
	s.UpdateInterval = 0
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed == 0 {
		t.Fatal("static scenario completed nothing")
	}
	if res.Protocol.Handoffs != 0 {
		t.Error("handoffs in a static scenario")
	}
}

func TestConsistencySchemesRun(t *testing.T) {
	for _, scheme := range []string{"plain-push", "pull-every-time", "push-adaptive-pull"} {
		s := quickScenario()
		s.Consistency = scheme
		s.UpdateInterval = 60
		s.Duration = 300
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Report.UpdatesIssued == 0 {
			t.Errorf("%s: no updates issued", scheme)
		}
		if res.Report.ControlMessages == 0 {
			t.Errorf("%s: no control messages", scheme)
		}
	}
}

// TestLossStreamsOnlyWhenLossy: a lossless scenario builds no loss
// streams (the radio never draws from them), a lossy one builds one per
// sender, each the stream derived from its name alone, so building them
// or not moves no other stream.
func TestLossStreamsOnlyWhenLossy(t *testing.T) {
	s := quickScenario()
	if got := s.lossStreams(sim.NewRNG(s.Seed)); got != nil {
		t.Fatalf("lossless scenario built %d loss streams", len(got))
	}
	s.LossRate = 0.1
	rng := sim.NewRNG(s.Seed)
	got := s.lossStreams(rng)
	if len(got) != s.Nodes {
		t.Fatalf("%d loss streams for %d senders", len(got), s.Nodes)
	}
	for i, st := range got {
		if st == nil {
			t.Fatalf("sender %d has no loss stream", i)
		}
		fresh := rng.Stream(fmt.Sprintf("loss/%d", i))
		for d := 0; d < 8; d++ {
			if a, b := st.Int63(), fresh.Int63(); a != b {
				t.Fatalf("sender %d's loss stream draw %d is %d, a fresh stream loss/%d draws %d", i, d, a, i, b)
			}
		}
	}
}
