// Command bench is the repository's benchmark: three lossless workloads,
// ten end-to-end metrics and a per-layer ledger, all measured from
// outside the simulator through its public functions. BENCHMARK.json at
// the repository root describes it; README.md in this directory says
// what each number means and which later claim may lean on it.
//
//	go run ./bench                          # every workload, 3 runs each
//	go run ./bench -traced                  # plus the traced pass and spans
//	go run ./bench -json set.json           # also write the set as JSON
//	go run ./bench -compare A.json B.json   # apply the bounds to two sets
//
// A driver calls it once per workload:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads one JSON object from the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale     = fs.String("scale", "full", "workload sizes: full, or tiny for the smoke test")
		seed      = fs.Int64("seed", 1, "copied into Scenario.Seed of every run")
		reps      = fs.Int("reps", 3, "timed runs per workload")
		workloads = fs.String("workloads", "", "comma-separated workloads to run (default: all)")
		traced    = fs.Bool("traced", false, "after the timed runs, make the traced pass: RunTraced, the isolated drives, the ledger and the spans")
		jsonPath  = fs.String("json", "", "also write the set of runs to this file as JSON")
		outDir    = fs.String("out", "bench/out", "directory the spans of a traced pass are written to")
		spec      = fs.String("spec", "BENCHMARK.json", "the benchmark description -compare takes its bounds from")
		compare   = fs.Bool("compare", false, "compare two -json files: bench -compare A.json B.json")

		workloadName = fs.String("workload", "", "driver mode: run this one workload and end with one JSON line")
		seconds      = fs.Float64("seconds", 0, "driver mode: repeat the timed runs for about this many seconds")
		trace        = fs.Int("trace", 0, "driver mode: 1 makes the traced pass and reports the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two JSON files")
			return 2
		}
		return compareMain(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}

	cfg := setConfig{Scale: *scale, Seed: *seed, Reps: *reps, Traced: *traced}
	var names []string
	switch {
	case *workloadName != "":
		// Two runs is the least that can disagree on a digest; in a traced
		// call the traced run is the second.
		names = []string{*workloadName}
		cfg.Reps, cfg.Seconds, cfg.Traced = 2, *seconds, *trace == 1
		if cfg.Traced {
			cfg.Reps = 1
		}
	case *workloads != "":
		names = strings.Split(*workloads, ",")
	}
	if cfg.Reps < 1 {
		fmt.Fprintln(stderr, "bench: -reps must be at least 1")
		return 2
	}

	var log spanLog
	set, err := runSet(cfg, names, &log, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	printSet(stdout, set)
	if cfg.Traced {
		path, err := log.write(*outDir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nspans: %s\n", path)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: write -json:", err)
			return 1
		}
	}
	if *workloadName != "" {
		// The line itself carries failed runs to the driver.
		if err := writeDriverLine(stdout, set.Workloads[0], cfg.Traced); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	for _, w := range set.Workloads {
		if w.RunsFailed > 0 {
			return 1
		}
	}
	return 0
}

// writeDriverLine ends the output with the one JSON object a driver
// reads: every end-to-end metric of an untraced call, every per-layer
// metric of a traced one. A per-layer metric that does not apply to the
// workload (the parallel group on a sequential run, a suppressed
// speedup) reads 0.
func writeDriverLine(out io.Writer, w workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct: w.RunsFailed == 0 && w.RunsAttempt > 0, Attempted: w.RunsAttempt, Failed: w.RunsFailed,
		Metrics: map[string]value{},
	}
	for _, d := range metricDefs {
		if d.EndToEnd == traced {
			continue
		}
		s, ok := w.sample(d)
		switch {
		case !ok && d.EndToEnd:
			return fmt.Errorf("%s: end-to-end metric %s was not measured", w.Name, d.Name)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			return fmt.Errorf("%s: metric %s is %v", w.Name, d.Name, s.Value)
		}
		line.Metrics[d.Name] = value{s.Value, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
