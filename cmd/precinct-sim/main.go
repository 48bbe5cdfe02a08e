// Command precinct-sim runs one PReCinCt simulation scenario and prints
// its metrics. The scenario comes from flags, from a JSON config file
// (-config), or both — explicitly set flags override the file. With -fig
// it regenerates the evaluation instead: the paper's figures, the
// extension sweeps and the three labs, as tables, CSV or ASCII charts;
// the 9a and 9b figures carry the Section 5 closed forms (Equations 11
// and 13) as their theory series.
//
// Two subcommands, named by the first argument, do the rest:
//
//	precinct-sim check [-start n] [-seeds n] [-workers n] [-scale] [-max-nodes n] [-v]
//	precinct-sim analyze [-timeline s] [-top n] [file]
//
// check runs a batch of deterministically fuzzed scenarios under the
// runtime invariant catalog and exits 2 when any seed violates it;
// analyze summarizes a JSONL trace written by -trace (stdin without a
// file).
//
// Examples:
//
//	precinct-sim -nodes 80 -speed 6 -policy gd-ld -cache-frac 0.015
//	precinct-sim -consistency push-adaptive-pull -update-interval 60
//	precinct-sim -retrieval flooding -mobility static -area 600 -cache-frac 0
//	precinct-sim -workload flash-crowd -nodes 60
//	precinct-sim -config scenario.json -seed 7
//	precinct-sim -save-config scenario.json -nodes 120
//	precinct-sim -check -nodes 40 -duration 300 -warmup 60
//	precinct-sim -fig all                  # what bench_figures.txt holds
//	precinct-sim -fig 6-8 -duration 600 -warmup 150 -format chart
//	precinct-sim -fig 9a                   # Equations 11/13 beside the simulation
//	precinct-sim check -seeds 100
//	precinct-sim check -scale -max-nodes 500 -seeds 4
//	precinct-sim -trace run.jsonl -nodes 40 && precinct-sim analyze -timeline 60 run.jsonl
//
// With -check the run executes under the full runtime invariant catalog
// (DESIGN.md section 9); any violation is printed and the process exits
// with status 2. A run is a deterministic function of its scenario, so
// the file -save-config writes is the resume token: -config re-runs it
// bit-identically (DESIGN.md section 10).
//
// A figure run takes -seed, -duration, -warmup, -nodes and -items (each
// overrides every cell of the sweep when set), -format and -workers; any
// other flag set beside -fig is an error, not silently ignored.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"precinct"
)

// startProfiles starts a CPU profile when cpu is non-empty and returns a
// stop function that finishes it and writes a heap profile to mem (when
// non-empty). The heap profile is taken after a GC so it shows live
// retention, not garbage.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "precinct-sim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "precinct-sim:", err)
			}
		}
	}, nil
}

// options is one parsed command line: the scenario every scenario flag
// is bound to, and the flags that steer the run around it.
type options struct {
	scenario precinct.Scenario
	// set holds the names of the flags given on the command line.
	set map[string]bool

	configFile, saveConfig, traceFile string
	cpuProfile, memProfile            string
	fig, format                       string
	workers                           int
	listPolicies, check, verbose      bool
}

// parseArgs binds each scenario flag to its Scenario field, defaulting
// to DefaultScenario. With -config the file replaces the scenario and
// args are parsed a second time, so only the flags given on the command
// line override it.
func parseArgs(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{scenario: precinct.DefaultScenario()}
	s := &o.scenario
	fs.StringVar(&o.configFile, "config", "", "load the scenario from a JSON file (explicit flags override it)")
	fs.StringVar(&o.saveConfig, "save-config", "", "write the effective scenario as JSON and exit")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "number of mobile peers")
	fs.Float64Var(&s.AreaSide, "area", s.AreaSide, "service area side in meters")
	fs.IntVar(&s.Regions, "regions", s.Regions, "number of grid regions")
	fs.StringVar(&s.MobilityModel, "mobility", s.MobilityModel, "mobility model: waypoint | static")
	fs.Float64Var(&s.MaxSpeed, "speed", s.MaxSpeed, "waypoint max speed in m/s")
	fs.Float64Var(&s.Pause, "pause", s.Pause, "waypoint pause time in s")
	fs.Float64Var(&s.Range, "range", s.Range, "radio range in meters")
	fs.Float64Var(&s.LossRate, "loss", s.LossRate, "frame loss probability")
	fs.Float64Var(&s.BeaconInterval, "beacon", s.BeaconInterval, "neighbor position beacon interval in s (0 = perfect knowledge)")
	fs.IntVar(&s.Items, "items", s.Items, "catalog size")
	fs.Float64Var(&s.ZipfTheta, "zipf", s.ZipfTheta, "request Zipf skew")
	fs.Float64Var(&s.RequestInterval, "request-interval", s.RequestInterval, "mean request gap per peer in s")
	fs.Float64Var(&s.UpdateInterval, "update-interval", s.UpdateInterval, "mean update gap per peer in s (0 disables)")
	fs.StringVar(&s.Workload, "workload", s.Workload, "request workload: "+strings.Join(precinct.WorkloadKinds(), " | "))
	fs.StringVar(&s.Retrieval, "retrieval", s.Retrieval, "precinct | flooding | expanding-ring")
	fs.StringVar(&s.Consistency, "consistency", s.Consistency, "none | plain-push | pull-every-time | push-adaptive-pull")
	fs.Float64Var(&s.TTRAlpha, "ttr-alpha", s.TTRAlpha, "TTR smoothing factor in [0,1)")
	fs.StringVar(&s.Policy, "policy", s.Policy, "replacement policy: "+strings.Join(precinct.PolicyNames(), " | "))
	fs.BoolVar(&o.listPolicies, "list-policies", false, "print the registered replacement policies, one per line, and exit")
	fs.Float64Var(&s.CacheFraction, "cache-frac", s.CacheFraction, "cache size as fraction of catalog (0 or negative disables)")
	fs.BoolVar(&s.EnRoute, "enroute", s.EnRoute, "en-route cache answering")
	fs.IntVar(&s.Replicas, "replicas", s.Replicas, "replica regions per key (0 = none, 1 = the paper's single replica region)")
	fs.Float64Var(&s.Warmup, "warmup", s.Warmup, "warmup time in s (excluded from metrics)")
	fs.Float64Var(&s.Duration, "duration", s.Duration, "total simulated time in s")
	fs.IntVar(&s.Shards, "shards", s.Shards, "run the event loop sharded over this many goroutines (0 or 1 = sequential)")
	fs.Float64Var(&s.ChurnInterval, "churn", s.ChurnInterval, "mean seconds between churn departures (0 disables)")
	fs.Float64Var(&s.ChurnDowntime, "churn-downtime", s.ChurnDowntime, "seconds a churned peer stays away")
	fs.Float64Var(&s.ChurnGraceful, "churn-graceful", s.ChurnGraceful, "fraction of graceful departures")
	fs.StringVar(&o.traceFile, "trace", "", "write a JSONL protocol event trace to this file")
	fs.BoolVar(&o.check, "check", false, "run with runtime invariant checkers; exit 2 on any violation")
	fs.BoolVar(&o.verbose, "v", false, "print protocol and radio counters too")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to `file` after the run")
	fs.StringVar(&o.fig, "fig", "", "regenerate evaluation figures instead of running one scenario: all | "+strings.Join(precinct.FigureIDs(), " | "))
	fs.StringVar(&o.format, "format", "table", "with -fig: table | csv | chart")
	fs.IntVar(&o.workers, "workers", 0, "with -fig: scenarios run at once (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if err := checkFigureFlags(o.set); err != nil {
		return nil, err
	}
	if o.configFile != "" {
		loaded, err := precinct.LoadScenarioFile(o.configFile)
		if err != nil {
			return nil, err
		}
		*s = loaded
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "check":
			os.Exit(runCheck(os.Args[2:], os.Stdout, os.Stderr))
		case "analyze":
			err := runAnalyze(os.Args[2:], os.Stdin, os.Stdout, os.Stderr)
			if err != nil && !errors.Is(err, flag.ErrHelp) {
				die(err)
			}
			return
		}
	}
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		die(err)
	}
	s := o.scenario
	if o.set["fig"] {
		cfg := precinct.ExperimentConfig{Seed: s.Seed, Workers: o.workers}
		if o.set["duration"] {
			cfg.Duration = s.Duration
		}
		if o.set["warmup"] {
			cfg.Warmup = s.Warmup
		}
		if o.set["nodes"] {
			cfg.Nodes = s.Nodes
		}
		if o.set["items"] {
			cfg.Items = s.Items
		}
		stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
		if err != nil {
			die(err)
		}
		err = printFigures(os.Stdout, o.fig, o.format, cfg)
		stopProfiles()
		if err != nil {
			die(err)
		}
		return
	}

	if o.listPolicies {
		for _, name := range precinct.PolicyNames() {
			fmt.Println(name)
		}
		return
	}

	if o.saveConfig != "" {
		if err := precinct.SaveScenarioFile(s, o.saveConfig); err != nil {
			die(err)
		}
		fmt.Println("wrote", o.saveConfig)
		return
	}

	if o.check && o.traceFile != "" {
		die(fmt.Errorf("-check and -trace are mutually exclusive"))
	}
	var traceW *os.File
	if o.traceFile != "" {
		f, ferr := os.Create(o.traceFile)
		if ferr != nil {
			die(ferr)
		}
		traceW = f
	}

	stopProfiles, perr := startProfiles(o.cpuProfile, o.memProfile)
	if perr != nil {
		die(perr)
	}

	var res precinct.Result
	var inv precinct.InvariantReport
	switch {
	case o.check:
		res, inv, err = precinct.RunChecked(s)
	case traceW != nil:
		res, err = precinct.RunTraced(s, traceW)
	default:
		res, err = precinct.Run(s)
	}
	// Profiles are finalized before the invariant exit path below, which
	// leaves main through os.Exit and would skip a deferred stop.
	stopProfiles()
	if traceW != nil {
		if cerr := traceW.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		die(err)
	}
	report(s, res, o.verbose)
	if o.check {
		fmt.Println(inv)
		if !inv.Ok() {
			for _, v := range inv.Violations {
				fmt.Fprintln(os.Stderr, "precinct-sim:", v)
			}
			os.Exit(2)
		}
	}
}

// A figure run reads -fig, the flags that mean nothing without it, and
// the flags ExperimentConfig and the profiler carry.
var (
	figureOnlyFlags = []string{"format", "workers"}
	figureRunFlags  = []string{"seed", "duration", "warmup", "nodes", "items", "cpuprofile", "memprofile"}
)

// checkFigureFlags rejects a command line that mixes the two modes: set
// holds the names of the flags given explicitly. A figure run builds its
// own scenarios, so any other scenario flag would be ignored; so would
// -format or -workers without -fig.
func checkFigureFlags(set map[string]bool) error {
	if !set["fig"] {
		for _, name := range figureOnlyFlags {
			if set[name] {
				return fmt.Errorf("-%s applies only with -fig", name)
			}
		}
		return nil
	}
	allowed := slices.Concat([]string{"fig"}, figureOnlyFlags, figureRunFlags)
	var extra []string
	for name := range set {
		if !slices.Contains(allowed, name) {
			extra = append(extra, "-"+name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s cannot be combined with -fig: a figure run takes only -%s",
			strings.Join(extra, ", "), strings.Join(allowed[1:], ", -"))
	}
	return nil
}

// printFigures runs the sweep named id (every one, in evaluation order,
// for "all") and prints each figure as it completes.
func printFigures(w io.Writer, id, format string, cfg precinct.ExperimentConfig) error {
	var render func(precinct.Figure) string
	switch format {
	case "table":
		render = precinct.Figure.String
	case "csv":
		render = func(f precinct.Figure) string { return fmt.Sprintf("# %s: %s\n%s", f.ID, f.Title, f.CSV()) }
	case "chart":
		render = func(f precinct.Figure) string { return f.Chart(60, 16) }
	default:
		return fmt.Errorf("unknown -format %q (table | csv | chart)", format)
	}
	ids := []string{id}
	if id == "all" {
		ids = precinct.FigureIDs()
	}
	for _, id := range ids {
		figs, err := precinct.Figures(id, cfg)
		if err != nil {
			return err
		}
		for _, f := range figs {
			if _, err := fmt.Fprintln(w, render(f)); err != nil {
				return err
			}
		}
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "precinct-sim:", err)
	os.Exit(1)
}

func report(s precinct.Scenario, res precinct.Result, verbose bool) {
	r := res.Report
	fmt.Printf("scenario: %d nodes, %.0f m area, %d regions, retrieval=%s, consistency=%s, policy=%s\n",
		s.Nodes, s.AreaSide, s.Regions, s.Retrieval, s.Consistency, s.Policy)
	if s.Replicas > 1 {
		fmt.Printf("replicas:           %d regions per key\n", s.Replicas)
	}
	if s.Workload != "" && s.Workload != "default" {
		fmt.Printf("workload:           %s\n", s.Workload)
	}
	fmt.Printf("requests:           %d (completed %d, failed %d)\n", r.Requests, r.Completed, r.Failures)
	classes := make([]string, 0, len(r.ByClass))
	for c := range r.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		if lat, ok := r.MeanLatencyByClass[c]; ok {
			fmt.Printf("  %-17s %d (mean %.3f s)\n", c+":", r.ByClass[c], lat)
		} else {
			fmt.Printf("  %-17s %d\n", c+":", r.ByClass[c])
		}
	}
	fmt.Printf("latency:            mean %.3f s, p50 %.3f s, p95 %.3f s, max %.3f s\n",
		r.MeanLatency, r.P50Latency, r.P95Latency, r.MaxLatency)
	fmt.Printf("byte hit ratio:     %.4f\n", r.ByteHitRatio)
	fmt.Printf("false hit ratio:    %.4f\n", r.FalseHitRatio)
	fmt.Printf("control messages:   %d\n", r.ControlMessages)
	fmt.Printf("search messages:    %d\n", r.SearchMessages)
	fmt.Printf("maintenance msgs:   %d\n", r.MaintenanceMessages)
	fmt.Printf("updates / polls:    %d / %d\n", r.UpdatesIssued, r.PollsIssued)
	fmt.Printf("energy:             %.1f mJ total, %.2f mJ/request\n", r.EnergyTotal, r.EnergyPerRequest)
	if verbose {
		fmt.Printf("protocol: %+v\n", res.Protocol)
		fmt.Printf("radio:    %+v\n", res.Radio)
	}
}
