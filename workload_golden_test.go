package precinct_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
)

const workloadGoldenPath = "testdata/workload_golden.json"

// workloadGoldenEntry records one case's observable behavior: the
// SHA-256 of the protocol trace stream plus the full report triple.
type workloadGoldenEntry struct {
	Case     string
	Seed     int64
	TraceSHA string
	Report   precinct.Report
	Protocol precinct.ProtocolStats
	Radio    precinct.RadioStats
	// Sweeps and Events are the invariant runner's counts, recorded by
	// checked cases only (which run untraced and leave TraceSHA empty).
	Sweeps uint64 `json:",omitempty"`
	Events uint64 `json:",omitempty"`
}

// goldenCase is one pinned scenario: the subtest it runs as and the
// fixture entry it must reproduce. Two subtests may share an entry.
type goldenCase struct {
	sub  string
	key  string
	s    precinct.Scenario
	long bool // 2000-node tier, skipped under -short
	// viaFile runs the scenario as loaded back from a saved config file;
	// checked runs it under the invariant catalog instead of the tracer.
	viaFile bool
	checked bool
}

// fuzzCases are fuzzgen.Expand(1..n). With lossy set, odd seeds that
// drew no message loss get LossRate 0.1, so the drop-handler, timeout
// and retry paths see traffic on half the corpus.
func fuzzCases(n int64, lossy bool) []goldenCase {
	var cases []goldenCase
	for seed := int64(1); seed <= n; seed++ {
		s := fuzzgen.Expand(seed)
		c := goldenCase{sub: s.Name, key: s.Name, s: s}
		if lossy && seed%2 == 1 && s.LossRate == 0 {
			c.s.LossRate = 0.1
			c.key += "/loss"
		}
		cases = append(cases, c)
	}
	return cases
}

// scaleCases are the large-N, always-lossy tier at its 2000-node cap.
func scaleCases() []goldenCase {
	var cases []goldenCase
	for seed := int64(1); seed <= 6; seed++ {
		s := fuzzgen.ExpandScale(seed, 2000)
		cases = append(cases, goldenCase{sub: s.Name, key: s.Name, s: s, long: true})
	}
	return cases
}

// policyCases is the eviction-heavy corpus: fuzz seeds 1–12 (odd ones
// lossy) and the scale tier, each pinned to an aged replacement policy
// (GD-LD on odd seeds, GD-Size on even); every one has a cache of 0.5–2.5%
// of the catalog, so all of them evict.
func policyCases() []goldenCase {
	cases := append(fuzzCases(12, true), scaleCases()...)
	for i := range cases {
		c := &cases[i]
		c.s.Policy = "gd-size"
		if c.s.Seed%2 == 1 {
			c.s.Policy = "gd-ld"
		}
		c.sub += "/" + c.s.Policy
		c.key += "/" + c.s.Policy
	}
	return cases
}

// radioCases are small DefaultScenario runs that between them take every
// branch of the neighbor query: both mobility models, network-wide
// floods, beaconing (incremental maintenance of observed positions),
// and node death.
func radioCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, mut func(*precinct.Scenario)) {
		s := precinct.DefaultScenario()
		s.Nodes = 40
		s.Items = 200
		s.Duration = 300
		s.Warmup = 100
		s.MobilityModel = "waypoint"
		s.Seed = 1
		mut(&s)
		cases = append(cases, goldenCase{sub: name, key: "radio/" + name, s: s})
	}
	for _, mob := range []string{"static", "waypoint"} {
		for _, ret := range []string{"precinct", "flooding"} {
			for _, seed := range []int64{1, 2, 3} {
				add(fmt.Sprintf("%s/%s/seed=%d", mob, ret, seed), func(s *precinct.Scenario) {
					s.MobilityModel = mob
					s.Retrieval = ret
					s.Seed = seed
				})
			}
		}
	}
	add("waypoint/beacon/seed=1", func(s *precinct.Scenario) { s.BeaconInterval = 2 })
	add("waypoint/faults/seed=2", func(s *precinct.Scenario) {
		s.Seed = 2
		s.Faults = []precinct.Fault{
			{At: 150, Node: 3, Kind: "crash"},
			{At: 180, Node: 17, Kind: "crash"},
		}
	})
	return cases
}

// sourceCases run each non-default workload source over its own fuzzgen
// seed (31 + its index in workloadKindsUnderTest).
func sourceCases() []goldenCase {
	var cases []goldenCase
	for i, kind := range workloadKindsUnderTest() {
		s := workloadScenario(int64(31+i), kind)
		cases = append(cases, goldenCase{sub: s.Name, key: s.Name, s: s})
	}
	return cases
}

// fileCases are fuzz seeds 1-12 run from their saved config files: the
// scenario file is the resume token, so the JSON round trip must lose
// nothing a run depends on.
func fileCases() []goldenCase {
	cases := fuzzCases(12, false)
	for i := range cases {
		cases[i].viaFile = true
	}
	return cases
}

// checkedCases are fuzz seeds 1 and 2 under the invariant catalog: the
// only cases in which the runner's recurring sweep fires, pinned by its
// sweep and event counts next to the report triple.
func checkedCases() []goldenCase {
	cases := fuzzCases(2, false)
	for i := range cases {
		cases[i].key += "/checked"
		cases[i].checked = true
	}
	return cases
}

// reachCases pin production paths no other case reaches (DESIGN.md
// section 17): the flash-crowd and hotspot sources with updates on, so
// their PickUpdateKey runs.
func reachCases() []goldenCase {
	var cases []goldenCase
	for i, kind := range []string{"flash-crowd", "hotspot"} {
		s := workloadScenario(int64(40+i), kind)
		s.UpdateInterval = 40
		s.Consistency = "push-adaptive-pull"
		s.Name = "reach/" + kind + "/updates"
		cases = append(cases, goldenCase{sub: kind + "/updates", key: s.Name, s: s})
	}
	return cases
}

// goldenSuites lists every pinned case under the test that runs it.
// The fixture holds one entry per distinct key.
func goldenSuites() map[string][]goldenCase {
	return map[string][]goldenCase{
		"TestWorkloadDefaultGolden": fuzzCases(14, false),
		"TestGridLinearEquivalence": radioCases(),
		"TestCacheIndexEquivalence": policyCases(),
		"TestLayoutEquivalence":     append(fuzzCases(14, true), scaleCases()...),
		"TestPoolingEquivalence":    append(fuzzCases(12, true), scaleCases()...),

		"TestResumeEquivalence":         fileCases(),
		"TestResumeEquivalenceChecked":  checkedCases(),
		"TestWorkloadResumeEquivalence": sourceCases(),
		"TestReachGolden":               reachCases(),
	}
}

// runTracedBytes executes a scenario with the protocol tracer attached
// and returns the result plus the raw trace stream.
func runTracedBytes(t *testing.T, s precinct.Scenario) (precinct.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	res, err := precinct.RunTraced(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func recordGolden(t *testing.T, c goldenCase) workloadGoldenEntry {
	t.Helper()
	s := c.s
	if c.viaFile {
		path := filepath.Join(t.TempDir(), "run.json")
		if err := precinct.SaveScenarioFile(s, path); err != nil {
			t.Fatal(err)
		}
		var err error
		if s, err = precinct.LoadScenarioFile(path); err != nil {
			t.Fatal(err)
		}
	}
	e := workloadGoldenEntry{Case: c.key, Seed: s.Seed}
	var res precinct.Result
	if c.checked {
		var inv precinct.InvariantReport
		var err error
		if res, inv, err = precinct.RunChecked(s); err != nil {
			t.Fatal(err)
		}
		if !inv.Ok() {
			t.Fatalf("invariant violations: %s", inv)
		}
		e.Sweeps, e.Events = inv.Sweeps, inv.Events
	} else {
		var traceBytes []byte
		res, traceBytes = runTracedBytes(t, s)
		sum := sha256.Sum256(traceBytes)
		e.TraceSHA = hex.EncodeToString(sum[:])
	}
	e.Report, e.Protocol, e.Radio = res.Report, res.Protocol, res.Radio
	return e
}

func loadGolden(t *testing.T) map[string]workloadGoldenEntry {
	t.Helper()
	data, err := os.ReadFile(workloadGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var list []workloadGoldenEntry
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	entries := make(map[string]workloadGoldenEntry, len(list))
	for _, e := range list {
		entries[e.Case] = e
	}
	return entries
}

// checkGolden runs the calling test's cases, one parallel subtest each,
// and holds every run to its fixture entry: byte-identical trace stream
// and DeepEqual Report, Protocol and Radio.
func checkGolden(t *testing.T) {
	want := loadGolden(t)
	for _, c := range goldenSuites()[t.Name()] {
		t.Run(c.sub, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("2000-node tier skipped under -short")
			}
			t.Parallel()
			w, ok := want[c.key]
			if !ok {
				t.Fatalf("no fixture entry %q; regenerate with PRECINCT_UPDATE_WORKLOAD_GOLDEN=1", c.key)
			}
			got := recordGolden(t, c)
			if got.TraceSHA != w.TraceSHA {
				t.Errorf("trace stream diverged from the recording (sha %s, want %s)", got.TraceSHA, w.TraceSHA)
			}
			if !reflect.DeepEqual(got.Report, w.Report) {
				t.Errorf("Report diverged:\n got:  %+v\n want: %+v", got.Report, w.Report)
			}
			if !reflect.DeepEqual(got.Protocol, w.Protocol) {
				t.Errorf("Protocol diverged:\n got:  %+v\n want: %+v", got.Protocol, w.Protocol)
			}
			if !reflect.DeepEqual(got.Radio, w.Radio) {
				t.Errorf("Radio diverged:\n got:  %+v\n want: %+v", got.Radio, w.Radio)
			}
			if got.Sweeps != w.Sweeps || got.Events != w.Events {
				t.Errorf("invariant runner saw %d sweeps / %d events, want %d / %d", got.Sweeps, got.Events, w.Sweeps, w.Events)
			}
		})
	}
}

// TestWorkloadDefaultGolden pins whole-run behavior to a committed
// recording, testdata/workload_golden.json. Its own cases are the 14
// fuzzgen seeds recorded before the workload subsystem refactor; the
// four tests below pin the corpora on which the grid neighbor index, the
// heap victim index, the pooled message lifecycle and the
// struct-of-arrays peer layout were each proven bit-identical to the
// reference implementation they replaced (DESIGN.md sections 8, 11, 12
// and 14). Every entry was reproduced by all four references before
// they were deleted, so matching the recording is matching them. The
// three *ResumeEquivalence tests further down pin what only the retired
// snapshot/restore suites ran (DESIGN.md section 10).
// Regenerate (only for an intentional behavior change) with
// PRECINCT_UPDATE_WORKLOAD_GOLDEN=1 go test -run WorkloadDefaultGolden .
func TestWorkloadDefaultGolden(t *testing.T) {
	suites := goldenSuites()
	if os.Getenv("PRECINCT_UPDATE_WORKLOAD_GOLDEN") == "1" {
		var entries []workloadGoldenEntry
		done := map[string]bool{}
		for _, name := range []string{
			"TestWorkloadDefaultGolden", "TestGridLinearEquivalence", "TestCacheIndexEquivalence",
			"TestLayoutEquivalence", "TestPoolingEquivalence",
			"TestResumeEquivalence", "TestResumeEquivalenceChecked", "TestWorkloadResumeEquivalence",
			"TestReachGolden",
		} {
			for _, c := range suites[name] {
				if !done[c.key] {
					done[c.key] = true
					entries = append(entries, recordGolden(t, c))
				}
			}
		}
		j, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workloadGoldenPath, append(j, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("workload golden fixture regenerated")
	}

	used := map[string]bool{}
	for _, cases := range suites {
		for _, c := range cases {
			used[c.key] = true
		}
	}
	for key := range loadGolden(t) {
		if !used[key] {
			t.Errorf("fixture entry %q belongs to no case", key)
		}
	}
	checkGolden(t)
}

func TestGridLinearEquivalence(t *testing.T) { checkGolden(t) }
func TestCacheIndexEquivalence(t *testing.T) { checkGolden(t) }
func TestLayoutEquivalence(t *testing.T)     { checkGolden(t) }

// TestPoolingEquivalence runs its corpus with every released message
// scrambled, so a handler that reads a box after giving up its
// reference diverges from the recording instead of getting away with it.
func TestPoolingEquivalence(t *testing.T) {
	t.Setenv("PRECINCT_DEBUG", "poison")
	checkGolden(t)
}

// The scenario file is the checkpoint (DESIGN.md section 10): a run
// loaded back from its saved config reproduces the recording.
func TestResumeEquivalence(t *testing.T) { checkGolden(t) }

// The invariant runner's sweep is an event like any other: a checked run
// reproduces its recorded report triple and sweep and event counts.
func TestResumeEquivalenceChecked(t *testing.T) { checkGolden(t) }

// Every non-default workload source reproduces its recording.
func TestWorkloadResumeEquivalence(t *testing.T) { checkGolden(t) }

// Paths only these cases reach: the update draws of the flash-crowd and
// hotspot sources.
func TestReachGolden(t *testing.T) { checkGolden(t) }
