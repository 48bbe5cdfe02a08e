package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
)

func flagSet(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

// TestCheckFigureFlags: a figure run names every flag it would ignore,
// and -format/-workers mean nothing without -fig.
func TestCheckFigureFlags(t *testing.T) {
	for _, ok := range [][]string{
		{},
		{"nodes", "policy", "check"},
		{"fig"},
		{"fig", "format", "workers", "seed", "duration", "warmup", "nodes", "items", "cpuprofile", "memprofile"},
	} {
		if err := checkFigureFlags(flagSet(ok...)); err != nil {
			t.Errorf("flags %v rejected: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		flags []string
		want  []string
	}{
		{[]string{"fig", "policy"}, []string{"-policy"}},
		{[]string{"fig", "nodes", "loss", "config"}, []string{"-config", "-loss"}},
		{[]string{"fig", "check"}, []string{"-check"}},
		{[]string{"format"}, []string{"-format"}},
		{[]string{"workers", "nodes"}, []string{"-workers"}},
	} {
		err := checkFigureFlags(flagSet(tc.flags...))
		if err == nil {
			t.Errorf("flags %v accepted", tc.flags)
			continue
		}
		for _, name := range tc.want {
			if !strings.Contains(err.Error(), name+" ") && !strings.Contains(err.Error(), name+",") {
				t.Errorf("flags %v: error %q does not name %s", tc.flags, err, name)
			}
		}
	}
}

// parse runs parseArgs on a fresh flag set that reports errors instead
// of exiting.
func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("precinct-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// writeScenario saves s as a config file and returns its path.
func writeScenario(t *testing.T, s precinct.Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := precinct.SaveScenarioFile(s, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConfigFlagOverridesOnlyItsField: a flag given beside -config
// replaces its one field and every other field keeps the file's value,
// not the flag's default.
func TestConfigFlagOverridesOnlyItsField(t *testing.T) {
	file := fuzzgen.Expand(7)
	o, err := parse("-config", writeScenario(t, file), "-nodes", "7")
	if err != nil {
		t.Fatal(err)
	}
	want := file
	want.Nodes = 7
	if !reflect.DeepEqual(o.scenario, want) {
		t.Errorf("scenario = %+v\nwant       %+v", o.scenario, want)
	}
}

// TestScenarioFlagsBindFields: every scenario flag sets exactly its
// field; the retired -static and -replication are undefined.
func TestScenarioFlagsBindFields(t *testing.T) {
	o, err := parse("-replicas", "0", "-mobility", "static")
	if err != nil {
		t.Fatal(err)
	}
	want := precinct.DefaultScenario()
	want.Replicas = 0
	want.MobilityModel = "static"
	if !reflect.DeepEqual(o.scenario, want) {
		t.Errorf("scenario = %+v\nwant       %+v", o.scenario, want)
	}
	for _, args := range [][]string{{"-static"}, {"-replication=false"}} {
		_, err := parse(args...)
		name := strings.SplitN(args[0], "=", 2)[0]
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%v: err = %v, want an undefined-flag error", args, err)
		}
	}
}

// TestChurnDefaults: a churn downtime of 0 means 0, and the churn flags'
// defaults are DefaultScenario's, so the command line and a config file
// naming only ChurnInterval run the same scenario.
func TestChurnDefaults(t *testing.T) {
	args := []string{"-nodes", "40", "-duration", "400", "-warmup", "100", "-churn", "20"}
	run := func(args ...string) precinct.Result {
		t.Helper()
		o, err := parse(args...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := precinct.Run(o.scenario)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flags := run(args...)
	if instant := run(append(args, "-churn-downtime", "0")...); reflect.DeepEqual(instant.Report, flags.Report) {
		t.Error("-churn-downtime 0 ran the same as the default downtime")
	}
	doc := `{"Nodes": 40, "Duration": 400, "Warmup": 100, "ChurnInterval": 20}`
	path := filepath.Join(t.TempDir(), "churn.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if file := run("-config", path); !reflect.DeepEqual(file, flags) {
		t.Errorf("config file %s ran differently from flags %v:\nfile:  %+v\nflags: %+v", doc, args, file.Report, flags.Report)
	}
}

// TestPrintFiguresRejects: an unknown id or format is an error before
// any sweep runs, not an empty run that exits 0.
func TestPrintFiguresRejects(t *testing.T) {
	cfg := precinct.ExperimentConfig{Seed: 1}
	if err := printFigures(io.Discard, "12", "table", cfg); err == nil || !strings.Contains(err.Error(), "6-8") {
		t.Errorf("unknown id: err = %v, want one listing the ids", err)
	}
	if err := printFigures(io.Discard, "9b", "json", cfg); err == nil || !strings.Contains(err.Error(), "json") {
		t.Errorf("unknown format: err = %v, want one naming it", err)
	}
}
