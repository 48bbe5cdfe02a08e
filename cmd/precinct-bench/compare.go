package main

// Benchmark regression gate, run via -compare. It re-runs a small,
// fast subset of the radio and scale suites on the current build and
// compares each probe against the committed baselines (BENCH_radio.json
// and BENCH_scale.json). A probe regresses when it is more than
// -tolerance (default 15%) slower, or allocates more than tolerance
// above baseline.
//
// Timing probes are inherently machine-dependent; allocation counts are
// not — the simulation is deterministic, so allocs/op and
// allocs_per_event reproduce exactly on any machine. ci therefore runs
// the binding gate with -allocs-only (timing printed advisory, only
// allocation regressions exit 3) and the full timing comparison stays
// advisory (`-$(MAKE) bench-compare`). Run the full comparison on the
// baseline machine, or regenerate the baselines, to make timing binding
// too. Raise the knob for noisy boxes:
//
//	precinct-bench -compare -tolerance 0.30
//
// Exit status 3 signals a regression; 0 means every probe is within
// tolerance.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"precinct"
	"precinct/internal/radio"
)

// loadJSON decodes a committed baseline report.
func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// compareProbe prints one probe's verdict and reports whether it
// regressed: current must stay within (1+tol) of baseline plus an
// absolute slack — one unit for integer counts (so allocs/op cannot trip
// on ±1), a few hundredths for fractional rates like allocs_per_event.
// Advisory probes print an ADVISORY:-labeled verdict but never count as
// a regression, so CI logs distinguish binding failures from drift.
func compareProbe(name, metric string, base, curr, tol, slack float64, advisory bool) bool {
	limit := base*(1+tol) + slack
	ok := curr <= limit
	verdict := "ok"
	if !ok {
		if advisory {
			verdict = "ADVISORY: over"
		} else {
			verdict = "REGRESSED"
		}
	}
	fmt.Printf("  %-34s %-16s base %12.1f  now %12.1f  (limit %12.1f)  %s\n",
		name, metric, base, curr, limit, verdict)
	return !ok && !advisory
}

// compareFloorProbe is compareProbe's mirror for higher-is-better
// metrics like hit ratios: current must stay above base*(1-tol) minus
// an absolute slack. Always advisory — hit ratios shift legitimately
// whenever caching behavior improves elsewhere, so these probes flag
// drift without failing builds.
func compareFloorProbe(name, metric string, base, curr, tol, slack float64) {
	limit := base*(1-tol) - slack
	verdict := "ok"
	if curr < limit {
		verdict = "ADVISORY: under"
	}
	fmt.Printf("  %-34s %-16s base %12.4f  now %12.4f  (floor %12.4f)  %s\n",
		name, metric, base, curr, limit, verdict)
}

// runBenchCompare re-runs the probe subset and compares against the
// baselines at baseRadio, baseScale, baseWorkloads, basePolicies and
// baseParallel. It returns whether any probe regressed beyond tol. With
// allocsOnly, timing metrics (ns/op, wall_seconds) are compared
// advisory and only the deterministic allocation metrics can regress
// the build. With advisory, every metric is advisory: overruns are
// labeled but nothing regresses the build. The workload probes (byte
// hit ratio and latency per source kind), the per-policy hit-ratio
// floors and the parallel speedup floor are always advisory.
func runBenchCompare(baseRadio, baseScale, baseWorkloads, basePolicies, baseParallel string, tol float64, allocsOnly, advisory bool) (bool, error) {
	timingAdvisory := allocsOnly || advisory
	var radioBase radioBenchReport
	if err := loadJSON(baseRadio, &radioBase); err != nil {
		return false, fmt.Errorf("radio baseline: %w", err)
	}
	var scaleBase scaleBenchReport
	if err := loadJSON(baseScale, &scaleBase); err != nil {
		return false, fmt.Errorf("scale baseline: %w", err)
	}
	radioByName := map[string]benchEntry{}
	for _, e := range radioBase.Results {
		radioByName[e.Name] = e
	}
	scaleByName := map[string]scaleEntry{}
	for _, e := range scaleBase.Results {
		scaleByName[e.Name] = e
	}

	regressed := false

	// Radio probes: the grid-backend neighbor queries that dominate the
	// hot path, re-run exactly as writeRadioBench runs them.
	fmt.Printf("radio probes vs %s (tolerance %.0f%%):\n", baseRadio, tol*100)
	for _, probe := range []struct {
		name  string
		bench func(b *testing.B)
	}{
		{"neighbors/static/grid/n=320", func(b *testing.B) {
			ch, _ := staticChannel(320)
			ch.Neighbors(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.Neighbors(radio.NodeID(i % 320))
			}
		}},
		{"neighbors/waypoint/grid/n=320", func(b *testing.B) {
			ch, sched := waypointChannel(320)
			ch.Neighbors(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					at := sched.Now() + 0.25
					sched.At(at, func() {})
					sched.Run(at)
				}
				ch.Neighbors(radio.NodeID(i % 320))
			}
		}},
	} {
		base, ok := radioByName[probe.name]
		if !ok {
			return false, fmt.Errorf("baseline %s has no entry %q; regenerate it", baseRadio, probe.name)
		}
		r := testing.Benchmark(probe.bench)
		if compareProbe(probe.name, "ns/op", base.NsPerOp, float64(r.NsPerOp()), tol, 1, timingAdvisory) {
			regressed = true
		}
		if compareProbe(probe.name, "allocs/op", float64(base.AllocsPerOp), float64(r.AllocsPerOp()), tol, 1, advisory) {
			regressed = true
		}
	}

	// Scale probes: two mid-size cells of the grid, sequential and
	// sharded, rebuilt with the baseline's durations so sim workload
	// matches exactly. The sharded probe exercises the parallel
	// scheduler's cores axis. Its simulation allocations replay exactly
	// like the sequential ones; goroutine scheduling adds runtime
	// bookkeeping jitter of order 1e-4 allocs/event, absorbed many times
	// over by the 0.05 absolute slack, so allocations still gate hard.
	// The 10000-node cell anchors the big tier (DESIGN.md section 14):
	// its allocs/event gate binding like the others, and its resident-set
	// footprint (mem_bytes_per_node) is compared advisory — RSS depends
	// on the machine and GC phase, so it warns about per-node memory
	// growth without failing builds on paging noise.
	fmt.Printf("scale probes vs %s (tolerance %.0f%%):\n", baseScale, tol*100)
	for _, cell := range []struct {
		n      int
		loss   float64
		shards int
	}{{500, 0, 1}, {500, 0.1, 1}, {500, 0.1, 4}, {10000, 0.3, 1}} {
		name := fmt.Sprintf("scale/n=%d/loss=%g", cell.n, cell.loss)
		if cell.shards > 1 {
			name += fmt.Sprintf("/shards=%d", cell.shards)
		}
		base, ok := scaleByName[name]
		if !ok {
			return false, fmt.Errorf("baseline %s has no entry %q; regenerate it", baseScale, name)
		}
		s := scaleScenario(cell.n, cell.loss, scaleBase.Quick)
		s.Shards = cell.shards
		e, err := runScaleCell(s)
		if err != nil {
			return false, err
		}
		if e.Events != base.Events {
			return false, fmt.Errorf("%s: event count diverged from baseline (%d vs %d); the workload changed — regenerate %s",
				name, e.Events, base.Events, baseScale)
		}
		// A sharded cell's wall clock is only a scaling number when both
		// sides had at least as many cores as shards. A baseline recorded
		// on a smaller host (coordination_overhead_only), or a probe run
		// on one, measures barrier overhead instead — the two numbers were
		// never comparable, so the timing probe is skipped rather than
		// failed. Allocations and event counts stay binding above: those
		// are deterministic regardless of cores.
		skipTiming := false
		switch {
		case cell.shards > 1 && (base.CoordinationOverheadOnly || (base.Cores > 0 && base.Cores < cell.shards)):
			fmt.Printf("  %-34s %-16s skipped: baseline recorded on %d cores < %d shards (coordination overhead, not comparable)\n",
				name, "wall_seconds", base.Cores, cell.shards)
			skipTiming = true
		case cell.shards > 1 && runtime.GOMAXPROCS(0) < cell.shards:
			fmt.Printf("  %-34s %-16s skipped: this host runs %d cores < %d shards (coordination overhead, not comparable)\n",
				name, "wall_seconds", runtime.GOMAXPROCS(0), cell.shards)
			skipTiming = true
		}
		if !skipTiming && compareProbe(name, "wall_seconds", base.WallSeconds, e.WallSeconds, tol, 1, timingAdvisory) {
			regressed = true
		}
		if compareProbe(name, "allocs_per_event", base.AllocsPerEvent, e.AllocsPerEvent, tol, 0.05, advisory) {
			regressed = true
		}
		if base.MemBytesPerNode > 0 && e.MemBytesPerNode > 0 {
			// Always advisory: resident-set footprint is not deterministic
			// the way allocation counts are. The 4096-byte slack absorbs
			// page-granularity jitter on small cells.
			compareProbe(name, "mem_bytes_per_node", base.MemBytesPerNode, e.MemBytesPerNode, tol, 4096, true)
		}
	}

	// Workload probes: the stationary baseline and one adversarial
	// source, re-run at the baseline's durations. The simulation is
	// deterministic, so the hit ratio and latency reproduce exactly
	// unless caching behavior changed — but behavior changes are often
	// intentional (that is the point of the lab), so these stay
	// advisory and a drift means "regenerate BENCH_workloads.json and
	// eyeball the table", never a failed build.
	var wlBase workloadBenchReport
	if err := loadJSON(baseWorkloads, &wlBase); err != nil {
		return false, fmt.Errorf("workload baseline: %w", err)
	}
	wlByKind := map[string]workloadEntry{}
	for _, e := range wlBase.Results {
		wlByKind[e.Workload] = e
	}
	fmt.Printf("workload probes vs %s (tolerance %.0f%%, advisory):\n", baseWorkloads, tol*100)
	traceDir, err := os.MkdirTemp("", "precinct-workloadcompare")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(traceDir)
	for _, kind := range []string{"default", "flash-crowd"} {
		base, ok := wlByKind[kind]
		if !ok {
			return false, fmt.Errorf("baseline %s has no entry for workload %q; regenerate it", baseWorkloads, kind)
		}
		s := workloadBenchScenario(kind, traceDir, wlBase.Quick)
		e, err := runWorkloadCell(s)
		if err != nil {
			return false, err
		}
		compareFloorProbe(base.Name, "byte_hit_ratio", base.ByteHitRatio, e.ByteHitRatio, tol, 0.005)
		compareProbe(base.Name, "mean_latency_s", base.MeanLatency, e.MeanLatency, tol, 0.01, true)
	}

	// Policy probes: every registered policy on the stationary workload,
	// re-run at the baseline's durations, each held advisory to its
	// committed byte-hit-ratio floor. Like the workload probes these are
	// deterministic — a drift means a policy's behavior changed, and the
	// remedy is regenerating BENCH_policies.json and eyeballing the
	// table, never a failed build. A policy present in the registry but
	// missing from the baseline is an error: the sweep must be
	// regenerated whenever a policy is added.
	var polBase policyBenchReport
	if err := loadJSON(basePolicies, &polBase); err != nil {
		return false, fmt.Errorf("policy baseline: %w", err)
	}
	polByName := map[string]policyEntry{}
	for _, e := range polBase.Results {
		polByName[e.Name] = e
	}
	fmt.Printf("policy probes vs %s (tolerance %.0f%%, advisory):\n", basePolicies, tol*100)
	for _, policy := range precinct.PolicyNames() {
		name := fmt.Sprintf("policy/%s/default", policy)
		base, ok := polByName[name]
		if !ok {
			return false, fmt.Errorf("baseline %s has no entry %q; regenerate it", basePolicies, name)
		}
		s := policyBenchScenario(policy, "default", 0, polBase.Quick)
		e, err := runPolicyCell(s, policy, "default", 0)
		if err != nil {
			return false, err
		}
		compareFloorProbe(base.Name, "byte_hit_ratio", base.ByteHitRatio, e.ByteHitRatio, tol, 0.005)
	}

	// Parallel speedup floor: re-run the tentpole pair (sequential and
	// shards=4, both at 4 cores) on the baseline's workload cell and hold
	// the measured speedup to the committed floor — always advisory,
	// because wall-clock ratios move with the machine. The probe only
	// runs when both sides could genuinely express the parallelism: a
	// baseline generated on a small host has no speedup key to hold, and
	// a small comparison host would measure coordination overhead, so
	// both cases print a skip line instead of a meaningless verdict.
	var parBase parallelBenchReport
	if err := loadJSON(baseParallel, &parBase); err != nil {
		return false, fmt.Errorf("parallel baseline: %w", err)
	}
	fmt.Printf("parallel probes vs %s (always advisory):\n", baseParallel)
	const probeShards = 4
	baseSpeedup, haveSpeedup := parBase.Summary[fmt.Sprintf("shards%d_cores%d_speedup", probeShards, probeShards)]
	switch {
	case !haveSpeedup:
		fmt.Printf("  %-34s %-16s skipped: baseline generated on a %d-CPU host has no %d-core speedup cell (regenerate %s on a bigger host)\n",
			"parallel/shards=4/cores=4", "speedup", parBase.NumCPU, probeShards, baseParallel)
	case runtime.NumCPU() < probeShards:
		fmt.Printf("  %-34s %-16s skipped: this host has %d logical CPUs < %d shards (coordination overhead, not comparable)\n",
			"parallel/shards=4/cores=4", "speedup", runtime.NumCPU(), probeShards)
	default:
		entryCores := runtime.GOMAXPROCS(probeShards)
		seqScen := parallelScenario(parBase.Quick)
		seqEntry, err := runScaleCell(seqScen)
		if err != nil {
			runtime.GOMAXPROCS(entryCores)
			return false, err
		}
		parScen := parallelScenario(parBase.Quick)
		parScen.Shards = probeShards
		parEntry, err := runScaleCell(parScen)
		runtime.GOMAXPROCS(entryCores)
		if err != nil {
			return false, err
		}
		if parEntry.Events != seqEntry.Events {
			return false, fmt.Errorf("parallel probe: executed %d events, sequential reference executed %d; the workload changed — regenerate %s",
				parEntry.Events, seqEntry.Events, baseParallel)
		}
		speedup := 0.0
		if parEntry.WallSeconds > 0 {
			speedup = seqEntry.WallSeconds / parEntry.WallSeconds
		}
		compareFloorProbe("parallel/shards=4/cores=4", "speedup", baseSpeedup, speedup, tol, 0.05)
	}

	switch {
	case regressed && advisory:
		fmt.Println("ADVISORY: bench-compare regressed (see limits above) — advisory run, not failing the build")
	case regressed:
		fmt.Println("bench-compare: REGRESSED (see limits above; override with -tolerance or regenerate baselines)")
	default:
		fmt.Println("bench-compare: ok")
	}
	return regressed, nil
}
