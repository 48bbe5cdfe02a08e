package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the bench reads back.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is how far apart one side's own readings lie, as a share of
// their median: the quartile distance from four readings up, the whole
// range below that.
func spread(s sample) float64 {
	if len(s.Samples) < 2 || s.Value == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.Samples...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if n := len(sorted); n >= 4 {
		lo, hi = sorted[n/4], sorted[(3*n-1)/4]
	}
	return (hi - lo) / math.Abs(s.Value)
}

// worsening is how much worse b's median is than a's, in the metric's
// unit; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return a - b
	}
	return b - a
}

// allBetter reports whether every reading of b beats every reading of a.
func allBetter(d metricDef, a, b sample) bool {
	if len(a.Samples) == 0 || len(b.Samples) == 0 {
		return false
	}
	if d.Better == "higher" {
		return b.Min > a.Max
	}
	return b.Max < a.Min
}

// verdict applies one metric's bound to the two sides. exact says the
// metric is deterministic and both sets were made from the same inputs:
// the caller passes bound 0, and any change at all is marked.
func verdict(d metricDef, bound float64, exact bool, a, b sample) (string, string) {
	worse := worsening(d, a.Value, b.Value)
	switch {
	case worse > math.Max(bound*math.Abs(a.Value), d.AbsFloor):
		return "worse", ""
	case exact && a.Value != b.Value:
		return "ok", "changed"
	case exact || math.Abs(worse) <= d.AbsFloor || allBetter(d, a, b):
		return "ok", ""
	case math.Max(spread(a), spread(b)) > bound:
		return "unresolved", "spread wider than bound"
	}
	return "ok", ""
}

// compareMain prints one row per workload and end-to-end metric with
// both medians, the ratio with its base and the verdict. It fails on any
// "worse" and on a higher share of failed runs.
func compareMain(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	var a, b setResult
	for _, in := range []struct {
		path string
		into any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.into); err != nil {
			fmt.Fprintln(stderr, "bench: compare:", err)
			return 2
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	sameInputs := a.Host.Seed == b.Host.Seed && a.Host.Scale == b.Host.Scale
	fmt.Fprintf(stdout, "A: %s commit=%s seed=%d scale=%s\nB: %s commit=%s seed=%d scale=%s\n",
		pathA, a.Host.Commit, a.Host.Seed, a.Host.Scale, pathB, b.Host.Commit, b.Host.Seed, b.Host.Scale)
	if !sameInputs {
		fmt.Fprintln(stdout, "seeds or scales differ: simulated metrics are held to their bounds, not to equality")
	}

	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	failed := false
	changedCounts := 0
	fmt.Fprintf(stdout, "\n%-12s %-26s %13s %13s %16s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-12s missing from %s\n", wa.Name, pathB)
			failed = true
			continue
		}
		for _, d := range metricDefs {
			if !d.EndToEnd {
				// A per-layer metric has no bound; an exact count that
				// moved between two sets of the same inputs is shown.
				sa, _ := wa.sample(d)
				sb, _ := wb.sample(d)
				if d.Exact && sameInputs && sa.Value != sb.Value {
					changedCounts++
					fmt.Fprintf(stdout, "%-12s %-26s %13.6g %13.6g  changed (exact count)\n", wa.Name, d.Name, sa.Value, sb.Value)
				}
				continue
			}
			sa, okA := wa.sample(d)
			sb, okB := wb.sample(d)
			bound, okBound := bounds[d.Name]
			if !okA || !okB || !okBound {
				fmt.Fprintf(stderr, "bench: compare: %s/%s is missing from a set or has no bound in %s\n", wa.Name, d.Name, specPath)
				return 2
			}
			exact := d.Exact && sameInputs
			if exact {
				bound = 0
			}
			v, note := verdict(d, bound, exact, sa, sb)
			if v == "worse" {
				failed = true
			}
			fmt.Fprintf(stdout, "%-12s %-26s %13.6g %13.6g %7.4f of %-6.4g %5.0f%%  %s %s\n",
				wa.Name, d.Name, sa.Value, sb.Value, ratio(sb.Value, sa.Value), sa.Value, bound*100, v, note)
		}
		if ratio(float64(wb.RunsFailed), float64(wb.RunsAttempt)) > ratio(float64(wa.RunsFailed), float64(wa.RunsAttempt)) {
			fmt.Fprintf(stdout, "%-12s runs_failed %d/%d -> %d/%d  worse\n",
				wa.Name, wa.RunsFailed, wa.RunsAttempt, wb.RunsFailed, wb.RunsAttempt)
			failed = true
		}
		if sameInputs && wa.ResultDigest != wb.ResultDigest {
			fmt.Fprintf(stdout, "%-12s result_digest changed: %s -> %s\n", wa.Name, wa.ResultDigest, wb.ResultDigest)
		}
	}
	if sameInputs {
		fmt.Fprintf(stdout, "\nexact per-layer counts changed: %d\n", changedCounts)
	}
	if failed {
		return 1
	}
	return 0
}
