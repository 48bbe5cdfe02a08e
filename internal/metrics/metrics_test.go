package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHitClassString(t *testing.T) {
	want := map[HitClass]string{
		LocalHit:    "local",
		RegionalHit: "regional",
		EnRouteHit:  "en-route",
		RemoteHit:   "remote",
		Failure:     "failure",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if HitClass(9).String() != "class(9)" {
		t.Error("unknown class string")
	}
}

func TestEmptyCollectorSnapshot(t *testing.T) {
	r := NewCollector().Snapshot()
	if r.Requests != 0 || r.Completed != 0 || r.Failures != 0 {
		t.Errorf("empty report has counts: %+v", r)
	}
	if r.MeanLatency != 0 || r.ByteHitRatio != 0 || r.FalseHitRatio != 0 {
		t.Errorf("empty report has ratios: %+v", r)
	}
}

func TestRequestAccounting(t *testing.T) {
	c := NewCollector()
	c.Request(0.5, 1000, LocalHit, false)
	c.Request(1.0, 2000, RemoteHit, false)
	c.Request(0, 500, Failure, false)
	r := c.Snapshot()
	if r.Requests != 3 || r.Completed != 2 || r.Failures != 1 {
		t.Errorf("counts wrong: %+v", r)
	}
	if r.ByClass["local"] != 1 || r.ByClass["remote"] != 1 || r.ByClass["failure"] != 1 {
		t.Errorf("class map wrong: %v", r.ByClass)
	}
	if math.Abs(r.MeanLatency-0.75) > 1e-12 {
		t.Errorf("mean latency %v, want 0.75", r.MeanLatency)
	}
	if r.MaxLatency != 1.0 {
		t.Errorf("max latency %v", r.MaxLatency)
	}
}

func TestByteHitRatio(t *testing.T) {
	c := NewCollector()
	c.Request(0.1, 1000, LocalHit, false)    // cache bytes
	c.Request(0.1, 1000, RegionalHit, false) // cache bytes
	c.Request(0.1, 2000, RemoteHit, false)   // not cache
	r := c.Snapshot()
	if math.Abs(r.ByteHitRatio-0.5) > 1e-12 {
		t.Errorf("byte hit ratio %v, want 0.5", r.ByteHitRatio)
	}
}

func TestEnRouteNotCountedAsCacheBytes(t *testing.T) {
	c := NewCollector()
	c.Request(0.1, 1000, EnRouteHit, false)
	r := c.Snapshot()
	if r.ByteHitRatio != 0 {
		t.Errorf("en-route hits must not count toward byte hit ratio: %v", r.ByteHitRatio)
	}
}

func TestFalseHitRatio(t *testing.T) {
	c := NewCollector()
	c.Request(0.1, 100, LocalHit, true)
	c.Request(0.1, 100, LocalHit, false)
	c.Request(0.1, 100, LocalHit, false)
	c.Request(0.1, 100, LocalHit, false)
	r := c.Snapshot()
	if math.Abs(r.FalseHitRatio-0.25) > 1e-12 {
		t.Errorf("false hit ratio %v, want 0.25", r.FalseHitRatio)
	}
}

func TestFailuresExcludedFromLatency(t *testing.T) {
	c := NewCollector()
	c.Request(2.0, 100, RemoteHit, false)
	c.Request(999, 100, Failure, false)
	r := c.Snapshot()
	if r.MeanLatency != 2.0 {
		t.Errorf("failure latency leaked into mean: %v", r.MeanLatency)
	}
}

func TestMessageCounters(t *testing.T) {
	c := NewCollector()
	c.ControlMessages(3)
	c.ControlMessages(2)
	c.SearchMessages(10)
	c.UpdateIssued()
	c.PollIssued()
	c.PollIssued()
	r := c.Snapshot()
	if r.ControlMessages != 5 || r.SearchMessages != 10 {
		t.Errorf("message counters: %+v", r)
	}
	if r.UpdatesIssued != 1 || r.PollsIssued != 2 {
		t.Errorf("update/poll counters: %+v", r)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.Request(float64(i), 10, RemoteHit, false)
	}
	r := c.Snapshot()
	if math.Abs(r.P50Latency-50.5) > 1 {
		t.Errorf("p50 = %v, want ~50.5", r.P50Latency)
	}
	if math.Abs(r.P95Latency-95) > 1.2 {
		t.Errorf("p95 = %v, want ~95", r.P95Latency)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of empty sample should be NaN")
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample percentile = %v", got)
	}
}

func TestWithEnergy(t *testing.T) {
	c := NewCollector()
	c.Request(0.1, 100, LocalHit, false)
	c.Request(0.1, 100, Failure, false)
	r := c.Snapshot().WithEnergy(500)
	if r.EnergyTotal != 500 {
		t.Errorf("EnergyTotal = %v", r.EnergyTotal)
	}
	if r.EnergyPerRequest != 250 {
		t.Errorf("EnergyPerRequest = %v, want 250 (over all requests)", r.EnergyPerRequest)
	}
	// Zero requests: no division.
	empty := NewCollector().Snapshot().WithEnergy(100)
	if empty.EnergyPerRequest != 0 {
		t.Errorf("empty EnergyPerRequest = %v", empty.EnergyPerRequest)
	}
}

func TestReportString(t *testing.T) {
	c := NewCollector()
	c.Request(0.25, 100, LocalHit, false)
	s := c.Snapshot().String()
	if s == "" {
		t.Error("empty String()")
	}
}

// Property: requests always equals completed + failures, and the class
// counts sum to requests.
func TestCountConsistencyProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		c := NewCollector()
		for _, raw := range classes {
			c.Request(0.1, 100, HitClass(raw%5), raw%7 == 0)
		}
		r := c.Snapshot()
		if r.Requests != r.Completed+r.Failures {
			return false
		}
		var sum uint64
		for _, v := range r.ByClass {
			sum += v
		}
		return sum == r.Requests
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		c := NewCollector()
		for _, v := range raw {
			c.Request(float64(v), 10, RemoteHit, false)
		}
		r := c.Snapshot()
		return r.P50Latency <= r.P95Latency+1e-9 && r.P95Latency <= r.MaxLatency+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanLatencyByClass(t *testing.T) {
	c := NewCollector()
	c.Request(0.1, 100, LocalHit, false)
	c.Request(0.3, 100, LocalHit, false)
	c.Request(1.0, 100, RemoteHit, false)
	c.Request(0, 100, Failure, false)
	r := c.Snapshot()
	if got := r.MeanLatencyByClass["local"]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("local mean latency %v, want 0.2", got)
	}
	if got := r.MeanLatencyByClass["remote"]; got != 1.0 {
		t.Errorf("remote mean latency %v", got)
	}
	if _, ok := r.MeanLatencyByClass["failure"]; ok {
		t.Error("failures should not have a latency entry")
	}
	if _, ok := r.MeanLatencyByClass["regional"]; ok {
		t.Error("empty classes should not have a latency entry")
	}
}

// feedStream records the first n requests of one fixed stream over every
// class, failures included.
func feedStream(c *Collector, n int) *Collector {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		c.Request(rng.Float64(), 1024+rng.Intn(9*1024), HitClass(rng.Intn(int(numClasses))), rng.Intn(10) == 0)
	}
	return c
}

// TestCappedCollectorPastItsCap: past the cap the sample buffer is a
// reservoir of exactly cap latencies, and only the percentiles are
// estimated from it. Every count, the max and the means come from the
// running aggregates and agree with the uncapped collector's; the
// reservoir's draws are a function of the stream alone; and until the
// cap is crossed the capped collector is the uncapped one.
func TestCappedCollectorPastItsCap(t *testing.T) {
	const reservoir, n = 8, 1000
	capped, uncapped := feedStream(NewCollectorCapped(reservoir), n), feedStream(NewCollector(), n)
	if len(capped.latencies) != reservoir || len(capped.latClasses) != reservoir || capped.seen <= reservoir {
		t.Fatalf("retained %d latencies and %d classes of %d, want %d", len(capped.latencies), len(capped.latClasses), capped.seen, reservoir)
	}
	// Each retained sample is one of the stream's, and replacement ran:
	// the reservoir is not the stream's first completions.
	seen := make(map[float64]uint8)
	for i, l := range uncapped.latencies {
		seen[l] = uncapped.latClasses[i]
	}
	for i, l := range capped.latencies {
		if cl, ok := seen[l]; !ok || cl != capped.latClasses[i] {
			t.Fatalf("retained sample %d (%v, class %d) is not in the stream", i, l, capped.latClasses[i])
		}
	}
	if reflect.DeepEqual(capped.latencies, uncapped.latencies[:reservoir]) {
		t.Error("the reservoir still holds only the stream's first completions")
	}

	got, want := capped.Snapshot(), uncapped.Snapshot()
	near := func(what string, a, b float64) {
		if math.Abs(a-b) > 1e-12*math.Abs(b) {
			t.Errorf("%s: capped %v, uncapped %v", what, a, b)
		}
	}
	near("MeanLatency", got.MeanLatency, want.MeanLatency)
	if len(got.MeanLatencyByClass) != len(want.MeanLatencyByClass) {
		t.Errorf("MeanLatencyByClass: capped %v, uncapped %v", got.MeanLatencyByClass, want.MeanLatencyByClass)
	}
	for cl, w := range want.MeanLatencyByClass {
		near("MeanLatencyByClass["+cl+"]", got.MeanLatencyByClass[cl], w)
	}
	// Everything else but the percentiles is exact.
	for _, r := range []*Report{&got, &want} {
		r.MeanLatency, r.MeanLatencyByClass, r.P50Latency, r.P95Latency = 0, nil, 0, 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("capped and uncapped reports differ beyond the latency estimates:\ncapped   %+v\nuncapped %+v", got, want)
	}

	if a, b := capped.Snapshot(), feedStream(NewCollectorCapped(reservoir), n).Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("two capped collectors fed one stream differ:\n%+v\n%+v", a, b)
	}
	for k := 0; feedStream(NewCollector(), k).seen <= reservoir; k++ {
		if a, b := feedStream(NewCollectorCapped(reservoir), k).Snapshot(), feedStream(NewCollector(), k).Snapshot(); !reflect.DeepEqual(a, b) {
			t.Errorf("%d requests, below the cap: capped and uncapped reports differ:\n%+v\n%+v", k, a, b)
		}
	}
}
