package precinct

import (
	"fmt"
	"math"
	"strings"

	"precinct/internal/analysis"
	"precinct/internal/cache"
	"precinct/internal/energy"
)

// Series is one labeled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a reproduced table/figure: the same rows/series the paper
// plots, as numbers.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Rows names the rows of a categorical x axis (a policy, a workload
	// source); every series' X is then the row index. Nil on a numeric
	// axis.
	Rows   []string
	Series []Series
}

// String renders the figure as an aligned text table, one row per X
// value, one column per series.
func (f Figure) String() string {
	out := fmt.Sprintf("%s: %s\n%12s", f.ID, f.Title, f.XLabel)
	for _, s := range f.Series {
		out += fmt.Sprintf("  %22s", s.Label)
	}
	out += "\n"
	if len(f.Series) == 0 {
		return out
	}
	for i := range f.Series[0].X {
		if i < len(f.Rows) {
			out += fmt.Sprintf("%12s", f.Rows[i])
		} else {
			out += fmt.Sprintf("%12.6g", f.Series[0].X[i])
		}
		for _, s := range f.Series {
			if i < len(s.Y) {
				out += fmt.Sprintf("  %22.6g", s.Y[i])
			}
		}
		out += "\n"
	}
	return out
}

// CSV renders the figure as comma-separated values: a header of
// x-label and series labels, then one row per x value. Series are
// aligned by index; shorter series leave trailing cells empty.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	rows := 0
	for _, s := range f.Series {
		if len(s.X) > rows {
			rows = len(s.X)
		}
	}
	for i := 0; i < rows; i++ {
		if i < len(f.Rows) {
			b.WriteString(csvEscape(f.Rows[i]))
		} else if i < len(f.Series[0].X) {
			fmt.Fprintf(&b, "%g", f.Series[0].X[i])
		}
		for _, s := range f.Series {
			b.WriteByte(',')
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%g", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// ExperimentConfig controls how much work a figure reproduction does.
// The zero value is replaced by paper-scale defaults; tests and
// `precinct-sim -fig` shrink Duration/Nodes to keep runs fast.
type ExperimentConfig struct {
	// Seed feeds every scenario of the experiment.
	Seed int64
	// Workers bounds sweep parallelism (<= 0: GOMAXPROCS).
	Workers int
	// Duration and Warmup override the simulated time when positive.
	Duration float64
	Warmup   float64
	// Nodes overrides the scenario node count when positive. Where the
	// node count is the x axis it caps the axis instead.
	Nodes int
	// Items overrides the catalog size when positive.
	Items int
}

func (c ExperimentConfig) apply(s *Scenario) {
	if c.Seed != 0 {
		s.Seed = c.Seed
	}
	if c.Duration > 0 {
		s.Duration = c.Duration
	}
	if c.Warmup > 0 && c.Warmup < s.Duration {
		s.Warmup = c.Warmup
	}
	if s.Warmup >= s.Duration {
		s.Warmup = s.Duration / 4
	}
	if c.Nodes > 0 {
		s.Nodes = c.Nodes
	}
	if c.Items > 0 {
		s.Items = c.Items
	}
}

// grid is one sweep of the evaluation: every (series, x) pair is one
// scenario, all of them run through one Sweep, and every metric reads the
// same cells into one Figure. The paper's figures, the extension sweeps,
// the three labs and the design-choice ablations are rows of the grids
// table below.
type grid struct {
	id       string // what Figures and `precinct-sim -fig` select it by
	xlabel   string
	xs       []float64
	rows     []string // a categorical x axis: cell receives the row index, xs is unused
	nodeAxis bool     // x is the node count: ExperimentConfig.Nodes caps the axis, not the cells
	nodes    int      // the cells' node count unless ExperimentConfig.Nodes sets it; 0: cell's own
	// cell builds the scenario at x, for nodes nodes where its geometry
	// follows the node count.
	cell    func(x float64, nodes int) Scenario
	series  []gridSeries
	metrics []gridMetric
}

// gridSeries is one curve: what set changes on the cell, and optionally
// the closed form plotted beside it (Figures 9a and 9b).
type gridSeries struct {
	label  string
	set    func(*Scenario)
	theory func(base analysis.Params, xs []int) ([]analysis.Point, error)
}

// gridMetric is one output figure: the quantity it reads from each cell.
type gridMetric struct {
	id, title, ylabel string
	of                func(Report) float64
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

var (
	meanLatency = func(r Report) float64 { return r.MeanLatency }
	byteHit     = func(r Report) float64 { return r.ByteHitRatio }
	falseHit    = func(r Report) float64 { return r.FalseHitRatio }
	energyMJ    = func(r Report) float64 { return r.EnergyPerRequest }
	p95Latency  = func(r Report) float64 { return r.P95Latency }
	requests    = func(r Report) float64 { return float64(r.Requests) }
	success     = func(r Report) float64 { return ratio(r.Completed, r.Requests) }

	retrievalSeries = []gridSeries{
		{label: "PReCinCt", set: func(s *Scenario) { s.Retrieval = "precinct" }},
		{label: "Flooding", set: func(s *Scenario) { s.Retrieval = "flooding" }},
		{label: "Expanding ring", set: func(s *Scenario) { s.Retrieval = "expanding-ring" }},
	}

	policySeries = []gridSeries{
		{label: "GD-LD", set: func(s *Scenario) { s.Policy = "gd-ld" }},
		{label: "GD-Size", set: func(s *Scenario) { s.Policy = "gd-size" }},
	}
)

// labMetrics are the columns the workload and policy labs report, the
// axes the replacement-policy surveys compare on (PAPERS.md).
func labMetrics(id, title string) []gridMetric {
	return []gridMetric{
		{id + "-requests", title + ": requests issued", "requests", requests},
		{id + "-bhr", title + ": byte hit ratio", "byte hit ratio", byteHit},
		{id + "-latency", title + ": mean latency", "latency/request (s)", meanLatency},
		{id + "-p95", title + ": p95 latency", "p95 latency (s)", p95Latency},
		{id + "-search", title + ": search messages", "search messages", func(r Report) float64 { return float64(r.SearchMessages) }},
	}
}

// grids is the whole evaluation, in the order `-fig all` prints it.
var grids = []grid{
	{ // Figures 4 and 5: the default 80 nodes at 6 m/s, no updates, over cache size.
		id: "4-5", xlabel: "cache %", xs: []float64{0.5, 1, 1.5, 2, 2.5},
		cell: func(pct float64, _ int) Scenario {
			s := DefaultScenario()
			s.CacheFraction = pct / 100
			return s
		},
		series: policySeries,
		metrics: []gridMetric{
			{"fig4", "Variation of latency with cache size (80 nodes, 6 m/s)", "latency/request (s)", meanLatency},
			{"fig5", "Variation of byte hit ratio with cache size", "byte hit ratio", byteHit},
		},
	},
	{ // Figures 6-8: the three consistency schemes over T_update/T_request.
		id: "6-8", xlabel: "Tupd/Treq", xs: []float64{1, 2, 3, 4, 5},
		cell: func(k float64, _ int) Scenario {
			s := DefaultScenario()
			s.UpdateInterval = s.RequestInterval * k
			return s
		},
		series: []gridSeries{
			{label: "Plain-Push", set: func(s *Scenario) { s.Consistency = "plain-push" }},
			{label: "Pull-Every-time", set: func(s *Scenario) { s.Consistency = "pull-every-time" }},
			{label: "Push-with-Adaptive-Pull", set: func(s *Scenario) { s.Consistency = "push-adaptive-pull" }},
		},
		metrics: []gridMetric{
			{"fig6", "Effect of update rate on control message overhead", "control messages", func(r Report) float64 { return float64(r.ControlMessages) }},
			{"fig7", "Effect of update rate on false hit ratio", "false hit ratio", falseHit},
			{"fig8", "Effect of update rate on latency per request", "latency/request (s)", meanLatency},
		},
	},
	{ // Figure 9(a): simulated energy next to Section 5's Equations 11 and 13.
		id: "9a", xlabel: "nodes", xs: []float64{20, 40, 60, 80}, nodeAxis: true,
		cell: func(n float64, _ int) Scenario { return validationScenario(int(n), 9) },
		series: []gridSeries{
			{label: "PReCinCt", set: func(s *Scenario) { s.Retrieval = "precinct" }, theory: analysis.PReCinCtVsNodes},
			{label: "Flooding", set: func(s *Scenario) { s.Retrieval = "flooding" }, theory: analysis.FloodingVsNodes},
		},
		metrics: []gridMetric{{"fig9a", "Energy per request vs nodes (600x600 static)", "energy/request (mJ)", energyMJ}},
	},
	{ // Figure 9(b): energy versus the number of regions at 20 nodes.
		id: "9b", xlabel: "regions", xs: []float64{1, 4, 9, 16, 25}, nodes: 20,
		cell:    func(k float64, nodes int) Scenario { return validationScenario(nodes, int(k)) },
		series:  []gridSeries{{label: "PReCinCt", theory: analysis.PReCinCtVsRegions}},
		metrics: []gridMetric{{"fig9b", "Energy per request vs number of regions (static)", "energy/request (mJ)", energyMJ}},
	},
	{ // The comparison the paper inherits from its companion workshop paper [11].
		id: "ext", xlabel: "nodes", xs: []float64{40, 80, 120, 160}, nodeAxis: true,
		cell: func(n float64, _ int) Scenario {
			s := DefaultScenario()
			s.Nodes = int(n)
			return s
		},
		series:  retrievalSeries,
		metrics: []gridMetric{{"ext", "Energy per request vs nodes by retrieval scheme (mobile)", "energy/request (mJ)", energyMJ}},
	},
	{ // The speeds the paper simulates (2-20 m/s, Section 6.1) but does not plot.
		id: "speed", xlabel: "m/s", xs: []float64{2, 8, 12, 16, 20},
		cell: func(v float64, _ int) Scenario {
			s := DefaultScenario()
			s.MaxSpeed = v
			return s
		},
		series: []gridSeries{{label: "PReCinCt"}},
		metrics: []gridMetric{
			{"ext-speed-latency", "Latency per request vs max speed", "latency (s)", meanLatency},
			{"ext-speed-failures", "Failure rate vs max speed", "failure rate", func(r Report) float64 { return ratio(r.Failures, r.Requests) }},
		},
	},
	{ // Request skew: the knob that bounds what a cooperative cache can do.
		id: "zipf", xlabel: "theta", xs: []float64{0, 0.4, 0.8, 1.2},
		cell: func(theta float64, _ int) Scenario {
			s := DefaultScenario()
			s.ZipfTheta = theta
			return s
		},
		series:  policySeries,
		metrics: []gridMetric{{"ext-zipf", "Byte hit ratio vs request skew", "byte hit ratio", byteHit}},
	},
	{ // Policy lab (DESIGN.md section 16): every registered policy at the
		// 1000-node cell, under a third of the default per-peer cache so the
		// aggregate cache does not cover the catalog and the policies separate.
		id: "policies", xlabel: "policy", rows: PolicyNames(), nodes: 1000,
		cell: func(i float64, nodes int) Scenario {
			s := scaleScenario(nodes)
			s.Policy = PolicyNames()[int(i)]
			s.CacheFraction = 0.005
			return s
		},
		series: []gridSeries{
			{label: "default"},
			{label: "flash-crowd", set: func(s *Scenario) { s.Workload = "flash-crowd" }},
			{label: "default k=2", set: func(s *Scenario) { s.Replicas = 2 }},
		},
		metrics: labMetrics("lab-policies", "Policy lab"),
	},
	{ // Workload lab (DESIGN.md section 15): every source at the same cell.
		id: "workloads", xlabel: "workload", rows: WorkloadKinds(), nodes: 1000,
		cell: func(i float64, nodes int) Scenario {
			s := scaleScenario(nodes)
			s.Workload = WorkloadKinds()[int(i)]
			return s
		},
		series:  []gridSeries{{label: "PReCinCt"}},
		metrics: labMetrics("lab-workloads", "Workload lab"),
	},
	{ // Scale grid (DESIGN.md section 14): constant density, N x frame loss.
		id: "scale", xlabel: "nodes", xs: []float64{250, 500, 1000, 2000, 10000}, nodeAxis: true,
		cell: func(n float64, _ int) Scenario { return scaleScenario(int(n)) },
		series: []gridSeries{
			{label: "loss 0"},
			{label: "loss 0.1", set: func(s *Scenario) { s.LossRate = 0.1 }},
			{label: "loss 0.3", set: func(s *Scenario) { s.LossRate = 0.3 }},
		},
		metrics: []gridMetric{
			{"scale-requests", "Scale grid: requests issued", "requests", requests},
			{"scale-success", "Scale grid: success ratio", "completed/requests", success},
			{"scale-bhr", "Scale grid: byte hit ratio", "byte hit ratio", byteHit},
			{"scale-latency", "Scale grid: mean latency", "latency/request (s)", meanLatency},
			{"scale-p95", "Scale grid: p95 latency", "p95 latency (s)", p95Latency},
		},
	},
	{ // Location error (DESIGN.md section 5): GPSR reads positions beaconed every x seconds.
		id: "beacon", xlabel: "beacon s", xs: []float64{0, 1, 2, 5, 10, 20, 40},
		cell: func(iv float64, _ int) Scenario {
			s := DefaultScenario()
			s.BeaconInterval = iv
			return s
		},
		series: retrievalSeries,
		metrics: []gridMetric{
			{"beacon-success", "Success ratio vs beacon interval", "completed/requests", success},
			{"beacon-latency", "Latency per request vs beacon interval", "latency/request (s)", meanLatency},
			{"beacon-energy", "Energy per request vs beacon interval", "energy/request (mJ)", energyMJ},
		},
	},
	{ // Equation 2's smoothing factor under uniform and skewed update targets.
		id: "ttr", xlabel: "alpha", xs: []float64{0, 0.5, 0.9},
		cell: func(alpha float64, _ int) Scenario {
			s := DefaultScenario()
			s.Consistency = "push-adaptive-pull"
			s.TTRAlpha = alpha
			return s
		},
		series: []gridSeries{
			{label: "uniform Tupd/Treq=1", set: func(s *Scenario) { s.UpdateInterval = s.RequestInterval }},
			{label: "uniform Tupd/Treq=5", set: func(s *Scenario) { s.UpdateInterval = 5 * s.RequestInterval }},
			{label: "zipf0.8 Tupd/Treq=1", set: func(s *Scenario) { s.UpdateZipfTheta, s.UpdateInterval = 0.8, s.RequestInterval }},
			{label: "zipf0.8 Tupd/Treq=5", set: func(s *Scenario) { s.UpdateZipfTheta, s.UpdateInterval = 0.8, 5*s.RequestInterval }},
		},
		metrics: []gridMetric{
			{"ttr-fhr", "False hit ratio vs TTR smoothing", "false hit ratio", falseHit},
			{"ttr-polls", "Polls issued vs TTR smoothing", "polls", func(r Report) float64 { return float64(r.PollsIssued) }},
		},
	},
	{ // Design-choice ablation (DESIGN.md section 5): one GD-LD utility
		// term zeroed at a time, then en-route answering off.
		id: "ablate", xlabel: "variant", rows: []string{"GD-LD", "WR=0", "WD=0", "WS=0", "no-en-route"},
		cell: func(i float64, _ int) Scenario {
			s := DefaultScenario()
			w := cache.DefaultWeights()
			switch int(i) {
			case 1:
				w.WR = 0
			case 2:
				w.WD = 0
			case 3:
				w.WS = 0
			case 4:
				s.EnRoute = false
			}
			if w != cache.DefaultWeights() {
				s.GDLDWeights = Weights(w)
			}
			return s
		},
		series: []gridSeries{{label: "PReCinCt"}},
		metrics: []gridMetric{
			{"ablate-latency", "Design-choice ablation: mean latency", "latency/request (s)", meanLatency},
			{"ablate-bhr", "Design-choice ablation: byte hit ratio", "byte hit ratio", byteHit},
		},
	},
	{ // Replica regions under crash churn: x departures a minute, none graceful.
		id: "replicas", xlabel: "crashes/min", xs: []float64{0, 2, 6, 12},
		cell: func(perMin float64, _ int) Scenario {
			s := DefaultScenario()
			if perMin > 0 {
				s.ChurnInterval = 60 / perMin
			}
			s.ChurnGraceful = 0
			return s
		},
		series: []gridSeries{
			{label: "replicas 0", set: func(s *Scenario) { s.Replicas = 0 }},
			{label: "replicas 1", set: func(s *Scenario) { s.Replicas = 1 }},
			{label: "replicas 2", set: func(s *Scenario) { s.Replicas = 2 }},
		},
		metrics: []gridMetric{
			{"replicas-success", "Success ratio vs crash rate", "completed/requests", success},
			{"replicas-latency", "Latency per request vs crash rate", "latency/request (s)", meanLatency},
		},
	},
}

// validationScenario is the Section 6.2.3 static validation topology:
// 600×600 m, no dynamic cache, no updates (the default), no warmup.
func validationScenario(nodes, regions int) Scenario {
	s := DefaultScenario()
	s.MobilityModel = "static"
	s.AreaSide = 600
	s.Nodes = nodes
	s.Regions = regions
	s.CacheFraction = 0
	s.Replicas = 0
	s.EnRoute = false
	s.Warmup = 0
	s.Duration = 1000
	return s
}

// analysisParams mirrors the validation scenario in the closed forms.
func analysisParams(s Scenario) analysis.Params {
	return analysis.Params{
		Model:        energy.DefaultModel(),
		N:            s.Nodes,
		AreaSide:     s.AreaSide,
		Range:        s.Range,
		Regions:      s.Regions,
		RequestBytes: 64 + 64, // control payload + radio header
		ReplyBytes:   (s.MinItemSize+s.MaxItemSize)/2 + 64,
	}
}

// scaleScenario is one cell of the scale tier: n nodes at the paper's
// density (the area grows with sqrt(n), ~400 m grid regions) for 300
// simulated seconds.
func scaleScenario(n int) Scenario {
	s := DefaultScenario()
	s.Nodes = n
	s.AreaSide = 1200 * math.Sqrt(float64(n)/80)
	rows := int(math.Round(s.AreaSide / 400))
	if rows < 3 {
		rows = 3
	}
	s.Regions = rows * rows
	s.Duration = 300
	s.Warmup = 60
	return s
}

// FigureIDs lists what Figures accepts, in evaluation order: the paper's
// figures ("4-5", "6-8", "9a", "9b"), the extension sweeps ("ext",
// "speed", "zipf"), the three labs ("policies", "workloads", "scale")
// and the design-choice rows ("beacon", "ttr", "ablate", "replicas").
func FigureIDs() []string {
	ids := make([]string, len(grids))
	for i, g := range grids {
		ids[i] = g.id
	}
	return ids
}

// Figures runs the sweep named id and returns one Figure per metric it
// reports, all read from the same cells.
func Figures(id string, cfg ExperimentConfig) ([]Figure, error) {
	for _, g := range grids {
		if g.id == id {
			return g.run(cfg)
		}
	}
	return nil, fmt.Errorf("precinct: unknown figure %q (have %s)", id, strings.Join(FigureIDs(), ", "))
}

func (g grid) run(cfg ExperimentConfig) ([]Figure, error) {
	xs := g.xs
	if g.rows != nil {
		xs = make([]float64, len(g.rows))
		for i := range xs {
			xs[i] = float64(i)
		}
	}
	if g.nodeAxis && cfg.Nodes > 0 {
		var capped []float64
		for _, n := range xs {
			if n <= float64(cfg.Nodes) {
				capped = append(capped, n)
			}
		}
		if capped == nil {
			capped = []float64{float64(cfg.Nodes)}
		}
		xs, cfg.Nodes = capped, 0
	}
	nodes := g.nodes
	if cfg.Nodes > 0 {
		nodes = cfg.Nodes
	}
	var cells []Scenario
	for _, sr := range g.series {
		for _, x := range xs {
			s := g.cell(x, nodes)
			if sr.set != nil {
				sr.set(&s)
			}
			s.Name = fmt.Sprintf("%s/%s/%g", g.id, sr.label, x)
			cfg.apply(&s)
			cells = append(cells, s)
		}
	}
	results, err := Sweep(cells, cfg.Workers)
	if err != nil {
		return nil, err
	}
	figs := make([]Figure, len(g.metrics))
	for mi, m := range g.metrics {
		fig := Figure{ID: m.id, Title: m.title, XLabel: g.xlabel, YLabel: m.ylabel, Rows: append([]string(nil), g.rows...)}
		for si, sr := range g.series {
			first := si * len(xs)
			sim := Series{Label: sr.label, X: append([]float64(nil), xs...)}
			for i := range xs {
				sim.Y = append(sim.Y, m.of(results[first+i].Report))
			}
			if sr.theory != nil {
				ints := make([]int, len(xs))
				for i, x := range xs {
					ints[i] = int(x)
				}
				points, err := sr.theory(analysisParams(cells[first]), ints)
				if err != nil {
					return nil, err
				}
				th := Series{Label: sr.label + " theory"}
				for _, p := range points {
					th.X = append(th.X, p.X)
					th.Y = append(th.Y, p.Y)
				}
				fig.Series = append(fig.Series, th)
				sim.Label += " sim"
			}
			fig.Series = append(fig.Series, sim)
		}
		figs[mi] = fig
	}
	return figs, nil
}
