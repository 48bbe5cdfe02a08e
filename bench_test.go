package precinct

// Benchmarks regenerating every figure of the paper's evaluation section
// at a reduced scale (fewer simulated seconds and nodes than the
// paper-scale `precinct-sim -fig all` run behind bench_figures.txt, so
// `go test -bench=.` stays tractable).
// Each benchmark reports the figure's headline metrics through
// b.ReportMetric, so the shape — who wins and by roughly what factor — is
// visible straight from the bench output. The ablation benchmarks cover
// the design choices DESIGN.md calls out: GD-LD weights, replica regions,
// TTR smoothing and en-route answering.

import (
	"fmt"
	"testing"
)

// benchConfig shrinks experiments enough to iterate quickly while keeping
// the comparisons meaningful.
func benchConfig() ExperimentConfig {
	return ExperimentConfig{
		Seed:     1,
		Duration: 300,
		Warmup:   100,
		Nodes:    40,
		Items:    200,
	}
}

// lastY returns the final point of a series (the largest cache size /
// node count — where the paper's gaps are widest).
func lastY(s Series) float64 {
	return s.Y[len(s.Y)-1]
}

// benchFigure runs the grid named id and returns its idx'th figure.
func benchFigure(b *testing.B, id string, idx int, cfg ExperimentConfig) Figure {
	b.Helper()
	figs, err := Figures(id, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return figs[idx]
}

func BenchmarkFig4LatencyVsCacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig4 := benchFigure(b, "4-5", 0, benchConfig())
		b.ReportMetric(lastY(fig4.Series[0]), "gdld-latency-s")
		b.ReportMetric(lastY(fig4.Series[1]), "gdsize-latency-s")
	}
}

func BenchmarkFig5ByteHitRatioVsCacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig5 := benchFigure(b, "4-5", 1, benchConfig())
		b.ReportMetric(lastY(fig5.Series[0]), "gdld-bhr")
		b.ReportMetric(lastY(fig5.Series[1]), "gdsize-bhr")
	}
}

func BenchmarkFig6ConsistencyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig6 := benchFigure(b, "6-8", 0, benchConfig())
		// Ratio 1 (highest update rate), where plain-push is worst.
		b.ReportMetric(fig6.Series[0].Y[0], "plainpush-msgs")
		b.ReportMetric(fig6.Series[1].Y[0], "pullevery-msgs")
		b.ReportMetric(fig6.Series[2].Y[0], "adaptive-msgs")
	}
}

func BenchmarkFig7FalseHitRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig7 := benchFigure(b, "6-8", 1, benchConfig())
		b.ReportMetric(fig7.Series[0].Y[0], "plainpush-fhr")
		b.ReportMetric(fig7.Series[1].Y[0], "pullevery-fhr")
		b.ReportMetric(fig7.Series[2].Y[0], "adaptive-fhr")
	}
}

func BenchmarkFig8ConsistencyLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig8 := benchFigure(b, "6-8", 2, benchConfig())
		b.ReportMetric(fig8.Series[0].Y[0], "plainpush-latency-s")
		b.ReportMetric(fig8.Series[1].Y[0], "pullevery-latency-s")
		b.ReportMetric(fig8.Series[2].Y[0], "adaptive-latency-s")
	}
}

func BenchmarkFig9aEnergyVsNodes(b *testing.B) {
	cfg := ExperimentConfig{Seed: 1, Duration: 400}
	for i := 0; i < b.N; i++ {
		fig := benchFigure(b, "9a", 0, cfg)
		// Series: PReCinCt theory, PReCinCt sim, Flooding theory,
		// Flooding sim; report the largest node count.
		b.ReportMetric(lastY(fig.Series[1]), "precinct-mJ")
		b.ReportMetric(lastY(fig.Series[3]), "flooding-mJ")
	}
}

func BenchmarkFig9bEnergyVsRegions(b *testing.B) {
	cfg := ExperimentConfig{Seed: 1, Duration: 400}
	for i := 0; i < b.N; i++ {
		fig := benchFigure(b, "9b", 0, cfg)
		b.ReportMetric(fig.Series[1].Y[0], "regions1-mJ")
		b.ReportMetric(lastY(fig.Series[1]), "regions25-mJ")
	}
}

func BenchmarkExtRetrievalSchemes(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig := benchFigure(b, "ext", 0, cfg)
		b.ReportMetric(lastY(fig.Series[0]), "precinct-mJ")
		b.ReportMetric(lastY(fig.Series[1]), "flooding-mJ")
		b.ReportMetric(lastY(fig.Series[2]), "ring-mJ")
	}
}

// BenchmarkRunScenario measures one full end-to-end simulation at
// growing node counts — the macro view of the radio hot path. "updates"
// is the benchmark's paper_80 workload at seed 1 (bench/workloads.go):
// the default scenario's 1000 items with every peer pushing an update a
// minute, the one shape in which stores are written while their holders
// re-home. `make profile` profiles it. "flood_2k" is that workload's
// namesake: 2000 nodes at paper density, read-only, where neighbor
// queries and their deliveries do most of the work. "scale_10k" is the
// third workload's shape: 10000 nodes, 30 s after 10 s of warm-up.
func BenchmarkRunScenario(b *testing.B) {
	b.Run("updates", func(b *testing.B) {
		s := DefaultScenario()
		s.Consistency = "push-adaptive-pull"
		s.UpdateInterval = 60
		s.Duration = 5000
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flood_2k", func(b *testing.B) {
		s := scaleScenario(2000)
		s.Duration = 180
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scale_10k", func(b *testing.B) {
		s := scaleScenario(10000)
		s.Duration, s.Warmup = 30, 10
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{80, 160, 320, 640} {
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			s := DefaultScenario()
			s.Nodes = n
			s.Items = 200
			s.Duration = 120
			s.Warmup = 30
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchScenario is the shared base of the ablation benchmarks.
func benchScenario() Scenario {
	s := DefaultScenario()
	s.Nodes = 40
	s.Items = 200
	s.Duration = 300
	s.Warmup = 100
	return s
}

func BenchmarkAblationGDLDWeights(b *testing.B) {
	// Zero out one GD-LD utility term at a time; the latency deltas show
	// which term carries the policy.
	variants := []struct {
		name       string
		wr, wd, ws float64
	}{
		{"full", 1, 1.0 / 400, 4096},
		{"no-popularity", 0, 1.0 / 400, 4096},
		{"no-distance", 1, 0, 4096},
		{"no-size", 1, 1.0 / 400, 0},
	}
	for i := 0; i < b.N; i++ {
		var scenarios []Scenario
		for _, v := range variants {
			s := benchScenario()
			s.Name = "gdld/" + v.name
			s.GDLDWeights = Weights{WR: v.wr, WD: v.wd, WS: v.ws}
			scenarios = append(scenarios, s)
		}
		results, err := Sweep(scenarios, 0)
		if err != nil {
			b.Fatal(err)
		}
		for vi, v := range variants {
			b.ReportMetric(results[vi].Report.MeanLatency, v.name+"-latency-s")
		}
	}
}

func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var scenarios []Scenario
		for _, reps := range []int{1, 0} {
			s := benchScenario()
			s.Name = fmt.Sprintf("replicas=%d", reps)
			s.Replicas = reps
			// Crash a third of the peers mid-run.
			for n := 0; n < s.Nodes/3; n++ {
				s.Faults = append(s.Faults, Fault{At: 150, Node: n * 3, Kind: "crash"})
			}
			scenarios = append(scenarios, s)
		}
		results, err := Sweep(scenarios, 0)
		if err != nil {
			b.Fatal(err)
		}
		avail := func(r Report) float64 {
			if r.Requests == 0 {
				return 1
			}
			return float64(r.Completed) / float64(r.Requests)
		}
		b.ReportMetric(avail(results[0].Report), "with-replicas-avail")
		b.ReportMetric(avail(results[1].Report), "without-replicas-avail")
	}
}

func BenchmarkAblationTTRAlpha(b *testing.B) {
	alphas := []float64{0, 0.5, 0.9}
	for i := 0; i < b.N; i++ {
		var scenarios []Scenario
		for _, a := range alphas {
			s := benchScenario()
			s.Name = fmt.Sprintf("alpha=%.1f", a)
			s.Consistency = "push-adaptive-pull"
			s.UpdateInterval = 60
			s.TTRAlpha = a
			scenarios = append(scenarios, s)
		}
		results, err := Sweep(scenarios, 0)
		if err != nil {
			b.Fatal(err)
		}
		for ai, a := range alphas {
			b.ReportMetric(results[ai].Report.FalseHitRatio, fmt.Sprintf("alpha%.1f-fhr", a))
			b.ReportMetric(float64(results[ai].Report.PollsIssued), fmt.Sprintf("alpha%.1f-polls", a))
		}
	}
}

func BenchmarkAblationEnRoute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var scenarios []Scenario
		for _, enroute := range []bool{true, false} {
			s := benchScenario()
			s.Name = fmt.Sprintf("enroute=%v", enroute)
			s.EnRoute = enroute
			scenarios = append(scenarios, s)
		}
		results, err := Sweep(scenarios, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Report.MeanLatency, "enroute-latency-s")
		b.ReportMetric(results[1].Report.MeanLatency, "no-enroute-latency-s")
	}
}

func BenchmarkAblationBeaconStaleness(b *testing.B) {
	// The paper argues routing to regions is "robust to errors in
	// location measurement": availability should degrade only mildly as
	// neighbor position knowledge goes stale.
	intervals := []float64{0, 2, 10}
	for i := 0; i < b.N; i++ {
		var scenarios []Scenario
		for _, iv := range intervals {
			s := benchScenario()
			s.Name = fmt.Sprintf("beacon=%.0fs", iv)
			s.BeaconInterval = iv
			scenarios = append(scenarios, s)
		}
		results, err := Sweep(scenarios, 0)
		if err != nil {
			b.Fatal(err)
		}
		for vi, iv := range intervals {
			r := results[vi].Report
			avail := 1.0
			if r.Requests > 0 {
				avail = float64(r.Completed) / float64(r.Requests)
			}
			b.ReportMetric(avail, fmt.Sprintf("beacon%.0fs-avail", iv))
		}
	}
}
