package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"precinct/internal/stats"
)

// hostFacts make a set of runs comparable with another.
type hostFacts struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Scale      string  `json:"scale"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds,omitempty"`
	Traced     bool    `json:"traced"`
	TotalS     float64 `json:"total_bench_s"`
}

// setConfig says what one set of runs measures.
type setConfig struct {
	Scale string
	Seed  int64
	// Reps is the number of timed runs per workload. When Seconds is
	// positive it is only the minimum, and runs repeat until the window
	// is used up.
	Reps    int
	Seconds float64
	Traced  bool
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name         string   `json:"name"`
	RunsAttempt  int      `json:"runs_attempted"`
	RunsFailed   int      `json:"runs_failed"`
	Failures     []string `json:"failures,omitempty"`
	ResultDigest string   `json:"result_digest"`
	// Flags carries qualifications such as coordination_overhead_only.
	Flags    []string          `json:"flags,omitempty"`
	EndToEnd map[string]sample `json:"end_to_end"`
	PerLayer map[string]sample `json:"per_layer"`
}

// sample returns the workload's reading of a metric, if it has one.
func (w workloadResult) sample(d metricDef) (sample, bool) {
	m := w.PerLayer
	if d.EndToEnd {
		m = w.EndToEnd
	}
	s, ok := m[d.Name]
	return s, ok
}

// setResult is the JSON document -json writes and -compare reads.
type setResult struct {
	Host      hostFacts        `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

func gatherHostFacts(cfg setConfig) hostFacts {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: commit, Scale: cfg.Scale, Seed: cfg.Seed, Reps: cfg.Reps,
		Seconds: cfg.Seconds, Traced: cfg.Traced,
	}
}

// coordinationOnly is the flag BENCH_parallel.json already uses for a
// sharded cell measured with fewer cores than shards.
const coordinationOnly = "coordination_overhead_only"

// runSet measures the named workloads one after another; no names means
// all of them.
func runSet(cfg setConfig, names []string, log *spanLog, progress io.Writer) (setResult, error) {
	sc, err := scaleFor(cfg.Scale)
	if err != nil {
		return setResult{}, err
	}
	if len(names) == 0 {
		for _, w := range sc.Workloads {
			names = append(names, w.Name)
		}
	}
	start := time.Now()
	set := setResult{Host: gatherHostFacts(cfg)}
	kernel := newCalibKernel()
	for _, name := range names {
		w, ok := findWorkload(sc.Workloads, name)
		if !ok {
			return setResult{}, fmt.Errorf("unknown workload %q", name)
		}
		fmt.Fprintf(progress, "# %s ...\n", w.Name)
		set.Workloads = append(set.Workloads, measure(w, cfg, sc, kernel, log))
	}
	set.Host.TotalS = time.Since(start).Seconds()
	return set, nil
}

// measure makes every run of one workload and derives its metrics; sc
// carries what the measurements around the timed runs cost, kernel is
// the reference the host times are normalised by.
func measure(w workload, cfg setConfig, sc scaleParams, kernel *calibKernel, log *spanLog) workloadResult {
	res := workloadResult{
		Name:     w.Name,
		EndToEnd: map[string]sample{}, PerLayer: map[string]sample{},
	}
	root := log.begin("workload:"+w.Name, 0)
	defer log.end(root)
	fail := func(format string, a ...any) {
		res.RunsFailed++
		res.Failures = append(res.Failures, fmt.Sprintf(format, a...))
	}
	// child runs one child process under a span, with slices of the
	// reference kernel before and after it; a run that does not come back
	// counts as attempted and failed.
	child := func(spanName, mode string, shards int, in driveInputs) (childResult, []float64, bool) {
		calib := kernel.slices(sc.CalibSlices)
		id := log.begin(spanName, root)
		out, err := spawnChild(childRequest{
			Mode: mode, Scale: cfg.Scale, Workload: w.Name, Shards: shards, Seed: cfg.Seed, Drive: in,
		})
		log.end(id)
		calib = append(calib, kernel.slices(sc.CalibSlices)...)
		if err != nil {
			fail("%v", err)
		}
		return out, calib, err == nil
	}
	// timed runs one whole scenario and checks its outputs.
	timed := func(spanName, mode string, shards int) (runRecord, []float64, bool) {
		res.RunsAttempt++
		out, calib, ok := child(spanName, mode, shards, driveInputs{})
		if !ok || out.Run == nil {
			return runRecord{}, nil, false
		}
		r := *out.Run
		switch {
		case r.Report.Requests == 0:
			fail("%s: no requests issued", spanName)
		case r.Report.Completed+r.Report.Failures != r.Report.Requests:
			fail("%s: completed %d + failures %d != requests %d", spanName,
				r.Report.Completed, r.Report.Failures, r.Report.Requests)
		default:
			return r, calib, true
		}
		return r, calib, false
	}

	// With a window, everything this call measures shares it: the set-up
	// child, the timed runs and the traced pass.
	windowStart := time.Now()

	// Every reading of every metric, summarised in one place at the end.
	readings := map[string][]float64{}

	// The build is timed in a child of its own, once before the timed runs
	// and once after them: a large build gives one child only three
	// readings, and two brackets a window apart see more of the host than
	// one. setupCost is what the second one will take.
	setup := func() {
		if out, calib, ok := child("build", "setup", 0, driveInputs{}); ok {
			readings["host.setup_raw_s"] = append(readings["host.setup_raw_s"], out.Setup...)
			readings["setup_s"] = append(readings["setup_s"], scaled(out.Setup, hostSpeed(calib))...)
		}
	}
	setup()
	setupCost := time.Since(windowStart).Seconds()

	// The timed runs, untraced. With a window they repeat while three
	// quarters of another run still fit before the second set-up child
	// and the traced pass. last is
	// what the latest run cost with its kernel slices; the traced pass is
	// priced from it: tracing added up to 9%, two shards on two cores ran
	// 1.2-1.35x the sequential time, and the drives build their layers
	// before they measure.
	var runs []runRecord
	var brackets [][]float64
	var last float64
	tracedCost := func() float64 {
		if !cfg.Traced {
			return 0
		}
		cost := 1.1*last + 1.5*sc.DriveMS/1e3*float64(len(drives))
		if w.CheckShards > 1 {
			cost += 1.4 * last
		}
		return cost
	}
	for i := 0; ; i++ {
		if i >= cfg.Reps {
			if cfg.Seconds <= 0 || len(runs) == 0 {
				break
			}
			if time.Since(windowStart).Seconds()+0.75*last+setupCost+tracedCost() > cfg.Seconds {
				break
			}
		}
		t0 := time.Now()
		r, calib, ok := timed("run", "run", 0)
		last = time.Since(t0).Seconds()
		if !ok {
			continue
		}
		if len(runs) > 0 && r.Digest != runs[0].Digest {
			fail("run %d: digest %s differs from first run's %s", i, r.Digest, runs[0].Digest)
			continue
		}
		runs = append(runs, r)
		brackets = append(brackets, calib)
	}
	if len(runs) == 0 {
		return res
	}
	setup()
	res.ResultDigest = runs[0].Digest
	for _, r := range runs {
		for name, v := range runMetrics(w, r) {
			readings[name] = append(readings[name], v)
		}
	}
	// Each run is normalised by the kernel slices around it and around
	// its calibNear neighbours on either side: one bracket alone is 0.6 s
	// of kernel and too noisy an estimate, while the host's phases last
	// long enough for five runs' brackets to follow them. The median over
	// the runs then drops a run that a burst hit.
	for i, raw := range readings["host.wall_raw_s"] {
		var near []float64
		for j := max(0, i-calibNear); j <= min(len(runs)-1, i+calibNear); j++ {
			near = append(near, brackets[j]...)
		}
		speed := hostSpeed(near)
		readings["host.speed_ratio"] = append(readings["host.speed_ratio"], speed)
		readings["wall_s"] = append(readings["wall_s"], raw*speed)
	}
	wallRaw := stats.Median(readings["host.wall_raw_s"])
	wall := stats.Median(readings["wall_s"])

	if cfg.Traced {
		traced, calib, ok := timed("run_traced", "traced", 0)
		switch {
		case !ok:
		case traced.Digest != runs[0].Digest:
			fail("traced run: digest %s differs from untraced %s", traced.Digest, runs[0].Digest)
		default:
			readings["trace.events"] = []float64{float64(traced.TraceEvents)}
			readings["trace.overhead_ratio"] = []float64{traced.WallS * hostSpeed(calib) / wall}
		}
		if w.CheckShards > 1 {
			// The sharded scheduler must reproduce the sequential Result.
			sharded, calib, ok := timed("run_sharded", "run", w.CheckShards)
			switch {
			case !ok:
			case sharded.Digest != runs[0].Digest:
				fail("%d shards: digest %s differs from sequential %s", w.CheckShards, sharded.Digest, runs[0].Digest)
			case sharded.Stats.Events != runs[0].Stats.Events:
				fail("%d shards: %d events differ from sequential %d", w.CheckShards, sharded.Stats.Events, runs[0].Stats.Events)
			default:
				for name, v := range parallelMetrics(sharded) {
					readings[name] = []float64{v}
				}
				// With fewer cores than shards the wall clock measures
				// barrier overhead, not scaling: flag it and report no speedup.
				if runtime.GOMAXPROCS(0) < w.CheckShards {
					res.Flags = append(res.Flags, coordinationOnly)
				} else {
					readings["parallel.speedup_vs_seq"] = []float64{wall / (sharded.WallS * hostSpeed(calib))}
				}
			}
		}
		radio := runs[0].Radio
		in := driveInputs{
			SimDT:   w.Duration / float64(radio.BroadcastFrames+radio.UnicastFrames),
			Samples: int(runs[0].Report.Requests),
		}
		if out, _, ok := child("layers", "layers", w.CheckShards, in); ok {
			log.adopt(out.Spans, root)
			for name, v := range out.Layers {
				readings[name] = []float64{v}
			}
			// The unit costs are raw, so their shares are of the raw wall clock.
			for name, v := range ledger(runs[0], wallRaw, out.Layers) {
				readings[name] = []float64{v}
			}
		}
	}

	for _, d := range metricDefs {
		vals := readings[d.Name]
		if len(vals) == 0 {
			continue
		}
		if d.EndToEnd {
			res.EndToEnd[d.Name] = summarise(vals, d.Unit)
		} else {
			res.PerLayer[d.Name] = summarise(vals, d.Unit)
		}
	}
	return res
}

// printSet writes every metric by name with its unit, per workload.
func printSet(out io.Writer, set setResult) {
	h := set.Host
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit)
	fmt.Fprintf(out, "set:  scale=%s seed=%d reps=%d seconds=%g traced=%v total_bench_s=%.1f\n",
		h.Scale, h.Seed, h.Reps, h.Seconds, h.Traced, h.TotalS)
	for _, w := range set.Workloads {
		fmt.Fprintf(out, "\n== %s  runs_attempted=%d runs_failed=%d %s\n",
			w.Name, w.RunsAttempt, w.RunsFailed, strings.Join(w.Flags, " "))
		fmt.Fprintf(out, "   result_digest=%s\n", w.ResultDigest)
		for _, f := range w.Failures {
			fmt.Fprintf(out, "   FAILED: %s\n", f)
		}
		for _, d := range metricDefs {
			s, ok := w.sample(d)
			if !ok {
				continue
			}
			fmt.Fprintf(out, "   %-36s %14.6g %-8s", d.Name, s.Value, s.Unit)
			if s.N > 1 && !d.Exact {
				fmt.Fprintf(out, " min %.6g max %.6g n=%d", s.Min, s.Max, s.N)
			}
			fmt.Fprintln(out)
		}
	}
}
