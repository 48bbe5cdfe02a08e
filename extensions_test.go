package precinct

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestMobilityModelSelection(t *testing.T) {
	for _, model := range []string{"waypoint", "static"} {
		s := quickScenario()
		s.MobilityModel = model
		s.Duration = 200
		s.Warmup = 50
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if res.Report.Completed == 0 {
			t.Errorf("%s: nothing completed", model)
		}
		if model == "static" && res.Protocol.Handoffs != 0 {
			t.Errorf("static model produced handoffs")
		}
	}
	// The retired models and an unknown one fail by name.
	for _, model := range []string{"random-walk", "gauss-markov", "teleport"} {
		s := quickScenario()
		s.MobilityModel = model
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `"`+model+`"`) {
			t.Errorf("mobility model %q: err = %v, want one naming it", model, err)
		}
	}
}

func TestMobilityModelsProduceDifferentRuns(t *testing.T) {
	base := quickScenario()
	base.Duration = 200
	base.Warmup = 50
	latencies := make(map[string]float64)
	for _, model := range []string{"waypoint", "static"} {
		s := base
		s.MobilityModel = model
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		latencies[model] = res.Report.MeanLatency
	}
	if latencies["waypoint"] == latencies["static"] {
		t.Error("both mobility models produced identical latencies (suspicious)")
	}
}

func TestChurnValidation(t *testing.T) {
	s := quickScenario()
	s.ChurnInterval = -1
	if err := s.Validate(); err == nil {
		t.Error("negative churn interval accepted")
	}
	s = quickScenario()
	s.ChurnInterval = 30
	s.ChurnGraceful = 2
	if err := s.Validate(); err == nil {
		t.Error("graceful fraction > 1 accepted")
	}
}

func TestChurnKeepsNetworkServing(t *testing.T) {
	s := quickScenario()
	s.Duration = 400
	s.Warmup = 100
	s.ChurnInterval = 20 // one departure every ~20 s
	s.ChurnDowntime = 40
	s.ChurnGraceful = 0.8
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed == 0 {
		t.Fatal("churn killed the network entirely")
	}
	// With mostly-graceful churn and replication, availability stays
	// reasonable.
	avail := float64(res.Report.Completed) / float64(res.Report.Requests)
	if avail < 0.6 {
		t.Errorf("availability %.2f under churn", avail)
	}
}

func TestChurnDeterministic(t *testing.T) {
	s := quickScenario()
	s.Duration = 300
	s.ChurnInterval = 25
	s.ChurnGraceful = 0.5
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.String() != b.Report.String() {
		t.Errorf("churn broke determinism:\n%v\n%v", a.Report, b.Report)
	}
}

func TestRunTracedEmitsEvents(t *testing.T) {
	var buf bytes.Buffer
	s := quickScenario()
	s.Duration = 200
	s.Warmup = 0
	res, err := RunTraced(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Requests == 0 {
		t.Fatal("no requests in traced run")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < int(res.Report.Requests) {
		t.Fatalf("only %d trace lines for %d requests", len(lines), res.Report.Requests)
	}
	kinds := make(map[string]int)
	for _, line := range lines {
		var e struct {
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
			Node int     `json:"node"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if e.T < 0 || e.T > s.Duration {
			t.Fatalf("event time %v outside run", e.T)
		}
		kinds[e.Kind]++
	}
	if kinds["request-issued"] == 0 || kinds["request-completed"] == 0 {
		t.Errorf("missing request lifecycle events: %v", kinds)
	}
}

func TestRunTracedMatchesRun(t *testing.T) {
	s := quickScenario()
	s.Duration = 200
	plain, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	traced, err := RunTraced(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report.String() != traced.Report.String() {
		t.Error("tracing changed simulation results")
	}
}

func TestFaultValidation(t *testing.T) {
	s := quickScenario()
	s.Faults = []Fault{{At: 10, Node: 9999, Kind: "crash"}}
	if err := s.Validate(); err == nil {
		t.Error("fault on unknown node accepted")
	}
	s = quickScenario()
	s.Faults = []Fault{{At: -5, Node: 0, Kind: "crash"}}
	if err := s.Validate(); err == nil {
		t.Error("fault before start accepted")
	}
	s = quickScenario()
	s.Faults = []Fault{{At: 10, Node: 0, Kind: "explode"}}
	if err := s.Validate(); err == nil {
		t.Error("unknown fault kind accepted")
	}
}

func TestQuitFaultPreservesAvailabilityBetterThanCrash(t *testing.T) {
	run := func(kind string) float64 {
		s := quickScenario()
		s.Duration = 400
		s.Warmup = 100
		for i := 0; i < s.Nodes/3; i++ {
			s.Faults = append(s.Faults, Fault{At: 150, Node: i * 3, Kind: kind})
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Requests == 0 {
			return 0
		}
		return float64(res.Report.Completed) / float64(res.Report.Requests)
	}
	crash := run("crash")
	quit := run("quit")
	// Graceful quits hand keys off, so availability must not be worse.
	if quit < crash-0.05 {
		t.Errorf("graceful quit availability %.3f worse than crash %.3f", quit, crash)
	}
}

func TestSummarize(t *testing.T) {
	s := quickScenario()
	s.Duration = 200
	_, _, err := Replicate(s, []int64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := Replicate(s, []int64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]Report, len(results))
	for i, r := range results {
		reports[i] = r.Report
	}
	sum := Summarize(reports)
	for _, key := range []string{"mean_latency", "byte_hit_ratio", "failure_rate", "energy_per_request"} {
		st, ok := sum[key]
		if !ok {
			t.Fatalf("missing metric %q", key)
		}
		if st.N != 3 {
			t.Errorf("%s: N = %d", key, st.N)
		}
		if st.Mean < st.Min-1e-9 || st.Mean > st.Max+1e-9 {
			t.Errorf("%s: mean outside range", key)
		}
	}
}

func TestBeaconStalenessDegradesGracefully(t *testing.T) {
	// The paper's robustness claim: region routing tolerates stale
	// location knowledge. Availability with 5 s old positions must stay
	// within a modest margin of perfect knowledge.
	run := func(interval float64) float64 {
		s := quickScenario()
		s.Duration = 400
		s.Warmup = 100
		s.BeaconInterval = interval
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Requests == 0 {
			return 0
		}
		return float64(res.Report.Completed) / float64(res.Report.Requests)
	}
	perfect := run(0)
	stale := run(5)
	if perfect-stale > 0.15 {
		t.Errorf("availability dropped %.3f -> %.3f with 5 s beacons", perfect, stale)
	}
}
