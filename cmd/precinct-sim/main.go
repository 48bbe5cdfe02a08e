// Command precinct-sim runs one PReCinCt simulation scenario and prints
// its metrics. The scenario comes from flags, from a JSON config file
// (-config), or both — explicitly set flags override the file. With -fig
// it regenerates the evaluation instead: the paper's figures, the
// extension sweeps and the three labs, as tables, CSV or ASCII charts.
//
// Examples:
//
//	precinct-sim -nodes 80 -speed 6 -policy gd-ld -cache-frac 0.015
//	precinct-sim -consistency push-adaptive-pull -update-interval 60
//	precinct-sim -retrieval flooding -static -area 600 -cache-frac -1
//	precinct-sim -workload flash-crowd -nodes 60
//	precinct-sim -workload trace -workload-trace internal/workload/testdata/sample_trace.csv
//	precinct-sim -config scenario.json -seed 7
//	precinct-sim -save-config scenario.json -nodes 120
//	precinct-sim -check -nodes 40 -duration 300
//	precinct-sim -fig all                  # what bench_figures.txt holds
//	precinct-sim -fig 6-8 -duration 600 -warmup 150 -format chart
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

func main() {
	def := precinct.DefaultScenario()

	configFile := flag.String("config", "", "load the scenario from a JSON file (explicit flags override it)")
	saveConfig := flag.String("save-config", "", "write the effective scenario as JSON and exit")
	seed := flag.Int64("seed", def.Seed, "random seed")
	nodes := flag.Int("nodes", def.Nodes, "number of mobile peers")
	area := flag.Float64("area", def.AreaSide, "service area side in meters")
	regions := flag.Int("regions", def.Regions, "number of grid regions")
	static := flag.Bool("static", false, "static placement instead of random waypoint")
	mobModel := flag.String("mobility", "", "mobility model: waypoint | static | random-walk | gauss-markov (overrides -static)")
	speed := flag.Float64("speed", def.MaxSpeed, "waypoint max speed in m/s")
	pause := flag.Float64("pause", def.Pause, "waypoint pause time in s")
	rng := flag.Float64("range", def.Range, "radio range in meters")
	loss := flag.Float64("loss", 0, "frame loss probability")
	beacon := flag.Float64("beacon", 0, "neighbor position beacon interval in s (0 = perfect knowledge)")
	items := flag.Int("items", def.Items, "catalog size")
	theta := flag.Float64("zipf", def.ZipfTheta, "request Zipf skew")
	reqInt := flag.Float64("request-interval", def.RequestInterval, "mean request gap per peer in s")
	updInt := flag.Float64("update-interval", def.UpdateInterval, "mean update gap per peer in s (0 disables)")
	workloadF := flag.String("workload", def.Workload, "request workload: default | trace | flash-crowd | diurnal | hotspot | rank-churn")
	workloadTrace := flag.String("workload-trace", "", "cachelib-format trace CSV for -workload trace")
	retrieval := flag.String("retrieval", def.Retrieval, "precinct | flooding | expanding-ring")
	consistencyF := flag.String("consistency", def.Consistency, "none | plain-push | pull-every-time | push-adaptive-pull")
	alpha := flag.Float64("ttr-alpha", def.TTRAlpha, "TTR smoothing factor in [0,1)")
	policy := flag.String("policy", def.Policy, "replacement policy: "+strings.Join(precinct.PolicyNames(), " | "))
	listPolicies := flag.Bool("list-policies", false, "print the registered replacement policies, one per line, and exit")
	cacheFrac := flag.Float64("cache-frac", def.CacheFraction, "cache size as fraction of catalog (negative disables)")
	enRoute := flag.Bool("enroute", def.EnRoute, "en-route cache answering")
	replication := flag.Bool("replication", def.Replication, "maintain replica regions")
	replicas := flag.Int("replicas", def.Replicas, "replica regions per key (0 or 1 = the paper's single replica region)")
	adaptive := flag.Bool("adaptive", false, "dynamic region management")
	warmup := flag.Float64("warmup", def.Warmup, "warmup time in s (excluded from metrics)")
	duration := flag.Float64("duration", def.Duration, "total simulated time in s")
	shards := flag.Int("shards", def.Shards, "run the event loop sharded over this many goroutines (0 or 1 = sequential)")
	churn := flag.Float64("churn", 0, "mean seconds between churn departures (0 disables)")
	churnDown := flag.Float64("churn-downtime", 60, "seconds a churned peer stays away")
	churnGraceful := flag.Float64("churn-graceful", 0.8, "fraction of graceful departures")
	traceFile := flag.String("trace", "", "write a JSONL protocol event trace to this file")
	check := flag.Bool("check", false, "run with runtime invariant checkers; exit 2 on any violation")
	verbose := flag.Bool("v", false, "print protocol and radio counters too")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the run")
	fig := flag.String("fig", "", "regenerate evaluation figures instead of running one scenario: all | "+strings.Join(precinct.FigureIDs(), " | "))
	format := flag.String("format", "table", "with -fig: table | csv | chart")
	workers := flag.Int("workers", 0, "with -fig: scenarios run at once (0 = GOMAXPROCS)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFigureFlags(set); err != nil {
		die(err)
	}
	if set["fig"] {
		cfg := precinct.ExperimentConfig{Seed: *seed, Workers: *workers}
		if set["duration"] {
			cfg.Duration = *duration
		}
		if set["warmup"] {
			cfg.Warmup = *warmup
		}
		if set["nodes"] {
			cfg.Nodes = *nodes
		}
		if set["items"] {
			cfg.Items = *items
		}
		stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
		if err != nil {
			die(err)
		}
		err = printFigures(os.Stdout, *fig, *format, cfg)
		stopProfiles()
		if err != nil {
			die(err)
		}
		return
	}

	if *listPolicies {
		for _, name := range precinct.PolicyNames() {
			fmt.Println(name)
		}
		return
	}

	s := def
	if *configFile != "" {
		loaded, err := precinct.LoadScenarioFile(*configFile)
		if err != nil {
			die(err)
		}
		s = loaded
	}

	// Apply only the flags the user explicitly set, so a config file's
	// values survive unless overridden on the command line.
	overrides := map[string]func(){
		"seed":             func() { s.Seed = *seed },
		"nodes":            func() { s.Nodes = *nodes },
		"area":             func() { s.AreaSide = *area },
		"regions":          func() { s.Regions = *regions },
		"static":           func() { s.Mobile = !*static },
		"mobility":         func() { s.MobilityModel = *mobModel },
		"speed":            func() { s.MaxSpeed = *speed },
		"pause":            func() { s.Pause = *pause },
		"range":            func() { s.Range = *rng },
		"loss":             func() { s.LossRate = *loss },
		"beacon":           func() { s.BeaconInterval = *beacon },
		"items":            func() { s.Items = *items },
		"zipf":             func() { s.ZipfTheta = *theta },
		"request-interval": func() { s.RequestInterval = *reqInt },
		"update-interval":  func() { s.UpdateInterval = *updInt },
		"workload":         func() { s.Workload = *workloadF },
		"workload-trace":   func() { s.TracePath = *workloadTrace },
		"retrieval":        func() { s.Retrieval = *retrieval },
		"consistency":      func() { s.Consistency = *consistencyF },
		"ttr-alpha":        func() { s.TTRAlpha = *alpha },
		"policy":           func() { s.Policy = *policy },
		"cache-frac":       func() { s.CacheFraction = *cacheFrac },
		"enroute":          func() { s.EnRoute = *enRoute },
		"replication":      func() { s.Replication = *replication },
		"replicas":         func() { s.Replicas = *replicas },
		"adaptive":         func() { s.AdaptiveRegions = *adaptive },
		"warmup":           func() { s.Warmup = *warmup },
		"duration":         func() { s.Duration = *duration },
		"shards":           func() { s.Shards = *shards },
		"churn":            func() { s.ChurnInterval = *churn },
		"churn-downtime":   func() { s.ChurnDowntime = *churnDown },
		"churn-graceful":   func() { s.ChurnGraceful = *churnGraceful },
	}
	if *configFile == "" {
		// Without a config file every flag applies (each default equals
		// the scenario default anyway).
		for _, apply := range overrides {
			apply()
		}
	} else {
		flag.Visit(func(f *flag.Flag) {
			if apply, ok := overrides[f.Name]; ok {
				apply()
			}
		})
	}

	if *saveConfig != "" {
		if err := precinct.SaveScenarioFile(s, *saveConfig); err != nil {
			die(err)
		}
		fmt.Println("wrote", *saveConfig)
		return
	}

	if *check && *traceFile != "" {
		die(fmt.Errorf("-check and -trace are mutually exclusive"))
	}
	var traceW *os.File
	if *traceFile != "" {
		f, ferr := os.Create(*traceFile)
		if ferr != nil {
			die(ferr)
		}
		traceW = f
	}

	stopProfiles, perr := startProfiles(*cpuProfile, *memProfile)
	if perr != nil {
		die(perr)
	}

	var res precinct.Result
	var inv precinct.InvariantReport
	var err error
	switch {
	case *check:
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
	report(s, res, *verbose)
	if *check {
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
	if s.Replication && s.Replicas > 1 {
		fmt.Printf("replicas:           %d regions per key\n", s.Replicas)
	}
	if s.Workload != "" && s.Workload != "default" {
		if s.Workload == "trace" {
			fmt.Printf("workload:           trace (%s)\n", s.TracePath)
		} else {
			fmt.Printf("workload:           %s\n", s.Workload)
		}
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
