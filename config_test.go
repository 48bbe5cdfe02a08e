package precinct

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := DefaultScenario()
	s.Name = "round-trip"
	s.Nodes = 42
	s.Consistency = "push-adaptive-pull"
	s.Faults = []Fault{{At: 10, Node: 3, Kind: "crash"}}
	var buf bytes.Buffer
	if err := SaveScenario(s, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.Nodes != 42 || got.Consistency != s.Consistency {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Faults) != 1 || got.Faults[0].Node != 3 {
		t.Errorf("faults lost: %+v", got.Faults)
	}
}

func TestLoadScenarioPartialDocumentKeepsDefaults(t *testing.T) {
	doc := `{"Nodes": 20, "Policy": "gd-size"}`
	s, err := LoadScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 20 || s.Policy != "gd-size" {
		t.Errorf("overrides not applied: %+v", s)
	}
	def := DefaultScenario()
	if s.AreaSide != def.AreaSide || s.RequestInterval != def.RequestInterval {
		t.Errorf("defaults not preserved: %+v", s)
	}
}

func TestLoadScenarioRejectsUnknownFields(t *testing.T) {
	doc := `{"Nodes": 20, "Nodez": 30}`
	if _, err := LoadScenario(strings.NewReader(doc)); err == nil {
		t.Error("typo field accepted")
	}
}

func TestLoadScenarioRejectsGarbage(t *testing.T) {
	if _, err := LoadScenario(strings.NewReader("{nope")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestLoadScenarioRejectsTrailingData: one object, then only whitespace.
// A second object must not be silently dropped.
func TestLoadScenarioRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{
		`{"Nodes":10} {"Nodes":99999} garbage`,
		`{"Nodes":10} {"Nodes":99999}`,
		`{"Nodes":10} garbage`,
		`{"Nodes":10}]`,
		`{"Nodes":10},`,
	} {
		_, err := LoadScenario(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), "after the scenario object") {
			t.Errorf("%s: err = %v, want a trailing-data error", doc, err)
		}
	}
	s, err := LoadScenario(strings.NewReader("  {\"Nodes\":10}\n\t \r\n"))
	if err != nil || s.Nodes != 10 {
		t.Errorf("surrounding whitespace: Nodes = %d, err = %v", s.Nodes, err)
	}
}

// TestRetiredScenarioKeysRejected: the five switches that selected the
// retired reference implementations or the retired load-probe shard
// split, the three fields that duplicated MobilityModel, Replicas and
// CacheFraction, the workload parameters that became constants, the
// Voronoi and adaptive region partitions, the receiver-collision
// model and the trace replay's file path are gone from Scenario, so a
// config file that still carries one fails by name instead of silently
// running something else.
func TestRetiredScenarioKeysRejected(t *testing.T) {
	for _, key := range []string{"LinearRadio", "LinearCache", "NoPooling", "LegacyLayout", "ShardBalance", "Mobile", "Replication", "CacheBytes", "WorkloadCfg",
		"VoronoiRegions", "AdaptiveRegions", "AdaptiveInterval", "AdaptiveSplitAbove", "AdaptiveMergeBelow", "Collisions", "TracePath"} {
		wantMsg := `unknown field "` + key + `"`
		_, err := LoadScenario(strings.NewReader(`{"Nodes":10,"` + key + `":false}`))
		if err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("%s in a config file: err = %v, want %s", key, err, wantMsg)
		}
	}
}

func TestScenarioFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	s := DefaultScenario()
	s.Name = "file-trip"
	if err := SaveScenarioFile(s, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenarioFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "file-trip" {
		t.Errorf("Name = %q", got.Name)
	}
	if _, err := LoadScenarioFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadedScenarioRuns(t *testing.T) {
	doc := `{"Nodes": 25, "Items": 60, "Duration": 150, "Warmup": 30}`
	s, err := LoadScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed == 0 {
		t.Error("loaded scenario served nothing")
	}
}
