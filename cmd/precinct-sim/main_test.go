package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"precinct"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/trace"
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

// check runs the check subcommand and returns its exit status and what it
// printed on each stream.
func check(args ...string) (code int, stdout, stderr string) {
	var out, errs strings.Builder
	code = runCheck(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestCheckSubcommand: a healthy build passes the first eight fuzzed
// seeds with one line per seed under -v, and a sabotaged one exits 2
// naming the violated invariant.
func TestCheckSubcommand(t *testing.T) {
	code, stdout, stderr := check("-seeds", "8", "-workers", "2", "-v")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stdout, "): ok — invariants: 0 violation(s)"); n != 8 {
		t.Errorf("%d ok lines for 8 seeds:\n%s", n, stdout)
	}
	if !strings.HasSuffix(stdout, "precinct-sim check: 8 scenario(s), 0 failed\n") {
		t.Errorf("summary line missing:\n%s", stdout)
	}

	t.Setenv("PRECINCT_DEBUG_BREAK", "no-evict")
	code, stdout, stderr = check("-seeds", "1")
	if code != 2 || !strings.Contains(stderr, "[cache]") || !strings.Contains(stdout, "1 failed") {
		t.Errorf("sabotaged build: exit %d, want 2 with a cache violation\nstdout: %s\nstderr: %.300s", code, stdout, stderr)
	}
}

// TestCheckSubcommandRejects: a count that is not positive, an unknown
// flag or a stray argument exits 1 before any scenario runs.
func TestCheckSubcommandRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "0"},
		{"-workers", "0"},
		{"-max-nodes", "0"},
		{"-no-such-flag"},
		{"8"},
	} {
		if code, stdout, _ := check(args...); code != 1 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want 1 and nothing run", args, code, stdout)
		}
	}
}

// TestAnalyzeSubcommand reads a RunTraced stream back, from stdin and
// from a file, and prints trace.Analyze's counts of it; a missing file
// and a timeline width that cannot be bucketed are errors.
func TestAnalyzeSubcommand(t *testing.T) {
	s := precinct.DefaultScenario()
	s.Nodes, s.Duration, s.Warmup = 30, 300, 60
	var stream bytes.Buffer
	if _, err := precinct.RunTraced(s, &stream); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(events)
	if a.Requests == 0 {
		t.Fatal("setup: the trace holds no requests")
	}
	want := fmt.Sprintf("requests:    %d issued, %d completed, %d failed\n", a.Requests, a.Completed, a.Failed)

	var fromStdin strings.Builder
	if err := runAnalyze(nil, bytes.NewReader(stream.Bytes()), &fromStdin, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fromStdin.String(), want) {
		t.Errorf("stdin: output lacks %q:\n%s", want, fromStdin.String())
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, stream.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile strings.Builder
	if err := runAnalyze([]string{"-timeline", "60", path}, nil, &fromFile, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out := fromFile.String(); !strings.HasPrefix(out, fromStdin.String()) || !strings.Contains(out, "timeline (60 s buckets)") {
		t.Errorf("file with -timeline 60: output is not the stdin summary plus a timeline:\n%s", out)
	}

	for _, args := range [][]string{
		{filepath.Join(t.TempDir(), "missing.jsonl")},
		{"-timeline", "NaN", path},
		{"-timeline", "1e-300", path},
	} {
		var out strings.Builder
		if err := runAnalyze(args, nil, &out, io.Discard); err == nil || out.Len() > 0 {
			t.Errorf("%v: err %v after printing %d bytes; want an error and nothing printed", args, err, out.Len())
		}
	}
}
