package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the measurement child the bench
// re-execs.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

const specPath = "../BENCHMARK.json"

func runBench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain(args, &stdout, &stderr)
	if t.Failed() || code != 0 {
		t.Logf("bench %v: exit %d\nstderr:\n%s", args, code, stderr.String())
	}
	return stdout.String(), code
}

// applies says whether a workload should report the metric on this host.
func applies(d metricDef, w workload) bool {
	if d.Sharded && w.CheckShards < 2 {
		return false
	}
	return d.Name != "parallel.speedup_vs_seq" || runtime.GOMAXPROCS(0) >= w.CheckShards
}

// TestSpecMatchesCode holds BENCHMARK.json and the metric and workload
// tables to each other, and both to the limits a driver enforces.
func TestSpecMatchesCode(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	if len(spec.Workloads) != len(fullWorkloads) {
		t.Fatalf("spec has %d workloads, code has %d", len(spec.Workloads), len(fullWorkloads))
	}
	for i, w := range fullWorkloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: spec has %q (%q), code has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if tiny, ok := findWorkload(tinyWorkloads, w.Name); !ok || tiny.CheckShards != w.CheckShards {
			t.Errorf("tiny scale does not mirror workload %s", w.Name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	inSpec := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if _, dup := inSpec[m.Name]; dup {
			t.Errorf("spec names %s twice", m.Name)
		}
		inSpec[m.Name] = m
	}
	endToEnd := map[string]bool{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if seen[d.Name] {
			t.Errorf("code defines %s twice", d.Name)
		}
		seen[d.Name] = true
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.Name)
		}
		m, ok := inSpec[d.Name]
		if !ok {
			t.Errorf("%s is missing from %s", d.Name, specPath)
			continue
		}
		if m.Unit != d.Unit || m.Better != d.Better || endToEnd[d.Name] != d.EndToEnd {
			t.Errorf("%s: spec says %s/%s/end-to-end=%v, code says %s/%s/end-to-end=%v",
				d.Name, m.Unit, m.Better, endToEnd[d.Name], d.Unit, d.Better, d.EndToEnd)
		}
	}
	for n := range inSpec {
		if !seen[n] {
			t.Errorf("%s is in %s but the code does not define it", n, specPath)
		}
	}
	if m := inSpec["setup_s"]; m.Unit != "s" || m.Better != "lower" || !endToEnd["setup_s"] {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestTinySet runs the whole bench at the tiny scale: every metric is
// emitted once per workload it applies to, runs agree on their digests
// (the traced and the sharded run too, or they would count as failed),
// and a set compared with itself is ok in every row.
func TestTinySet(t *testing.T) {
	dir := t.TempDir()
	setPath := filepath.Join(dir, "set.json")
	stdout, code := runBench(t, "-scale", "tiny", "-traced", "-reps", "2", "-json", setPath, "-out", dir)
	if code != 0 {
		t.Fatalf("tiny set exited %d", code)
	}
	var set setResult
	if err := readJSON(setPath, &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(tinyWorkloads) {
		t.Fatalf("set has %d workloads, want %d", len(set.Workloads), len(tinyWorkloads))
	}
	sections := strings.Split(stdout, "\n== ")[1:]
	for i, w := range tinyWorkloads {
		got := set.Workloads[i]
		// Two timed runs, the traced one and, where the workload asks for
		// it, the sharded one, which must all agree.
		attempts := 3
		if w.CheckShards > 1 {
			attempts = 4
		}
		if got.RunsAttempt != attempts || got.RunsFailed != 0 || got.ResultDigest == "" {
			t.Errorf("%s: %d runs attempted, %d failed: %v", w.Name, got.RunsAttempt, got.RunsFailed, got.Failures)
		}
		printed := map[string]int{}
		for _, line := range strings.Split(sections[i], "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				printed[f[0]]++
			}
		}
		for _, d := range metricDefs {
			_, inJSON := got.sample(d)
			want := applies(d, w)
			if inJSON != want || (printed[d.Name] == 1) != want {
				t.Errorf("%s: metric %s applies=%v, in JSON=%v, printed %d times", w.Name, d.Name, want, inJSON, printed[d.Name])
			}
		}
	}
	var spans []span
	if err := readJSON(filepath.Join(dir, "spans.json"), &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for _, want := range []string{"workload:paper_80", "build", "run", "run_traced", "run_sharded", "layer:sim.push_pop", "layer:parallel.barrier"} {
		if !names[want] {
			t.Errorf("no span named %s", want)
		}
	}

	out, code := runBench(t, "-spec", specPath, "-compare", setPath, setPath)
	if code != 0 || strings.Contains(out, "worse") || strings.Contains(out, "unresolved") {
		t.Errorf("a set compared with itself: exit %d\n%s", code, out)
	}
	if rows := strings.Count(out, " ok "); rows != len(tinyWorkloads)*10 {
		t.Errorf("compare printed %d ok rows, want %d\n%s", rows, len(tinyWorkloads)*10, out)
	}
}

// TestDriverLine checks the one JSON object a driver reads: exactly the
// end-to-end metrics of an untraced call, exactly the per-layer metrics
// of a traced one.
func TestDriverLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		trace := "0"
		if traced {
			trace = "1"
		}
		stdout, code := runBench(t, "-scale", "tiny", "--workload", "scale_10k", "--seed", "2",
			"--seconds", "0", "--trace", trace, "-out", t.TempDir())
		if code != 0 {
			t.Fatalf("driver call exited %d", code)
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !line.Correct || line.Attempted < 2 || line.Failed != 0 {
			t.Errorf("trace=%s: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
		}
		want := 0
		for _, d := range metricDefs {
			if d.EndToEnd == traced {
				continue
			}
			want++
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%s: metric %s missing or in unit %q, want %q", trace, d.Name, m.Unit, d.Unit)
			}
		}
		if len(line.Metrics) != want {
			t.Errorf("trace=%s: %d metrics, want %d", trace, len(line.Metrics), want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower"}
	sim := metricDef{Name: "sim_success_ratio", Better: "higher", Exact: true}
	floor := metricDef{Name: "setup_s", Better: "lower", AbsFloor: 0.02}
	of := func(vals ...float64) sample { return summarise(vals, "") }
	for _, c := range []struct {
		name  string
		d     metricDef
		bound float64
		exact bool
		a, b  sample
		want  string
	}{
		{"within bound", lower, 0.1, false, of(10, 10.1, 10.2), of(10.5, 10.6, 10.7), "ok"},
		{"beyond bound", lower, 0.1, false, of(10, 10.1, 10.2), of(11.5, 11.6, 11.7), "worse"},
		{"noisy", lower, 0.1, false, of(9, 10, 12), of(9.5, 10.5, 11), "unresolved"},
		{"noisy but every run better", lower, 0.1, false, of(9, 10, 12), of(7, 8, 8.5), "ok"},
		{"same seed, worse", sim, 0, true, of(0.99), of(0.98), "worse"},
		{"same seed, better", sim, 0, true, of(0.98), of(0.99), "ok"},
		{"other seed, within bound", sim, 0.05, false, of(0.99), of(0.98), "ok"},
		{"below the absolute floor", floor, 0.1, false, of(0.003), of(0.009), "ok"},
	} {
		if got, _ := verdict(c.d, c.bound, c.exact, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
