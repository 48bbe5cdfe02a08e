package precinct

import (
	"math"
	"strings"
	"testing"
)

// tinyConfig keeps figure tests fast: the goal here is plumbing
// correctness (labels, axes, series alignment), not statistical quality.
func tinyConfig() ExperimentConfig {
	return ExperimentConfig{
		Seed:     3,
		Duration: 120,
		Warmup:   30,
		Nodes:    25,
		Items:    60,
	}
}

// figures runs one grid and fails the test unless it yields want figures.
func figures(t *testing.T, id string, cfg ExperimentConfig, want int) []Figure {
	t.Helper()
	figs, err := Figures(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != want {
		t.Fatalf("Figures(%q): %d figures, want %d", id, len(figs), want)
	}
	return figs
}

// TestFiguresEveryID runs every grid at the tiny config and checks what
// any figure must satisfy: at least one series, X and Y of equal length,
// every value finite. It is the only test of the three lab grids' shape.
func TestFiguresEveryID(t *testing.T) {
	for _, id := range FigureIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			figs, err := Figures(id, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(figs) == 0 {
				t.Fatal("no figures")
			}
			for _, fig := range figs {
				if len(fig.Series) == 0 {
					t.Errorf("%s: no series", fig.ID)
				}
				for _, s := range fig.Series {
					if len(s.X) == 0 || len(s.X) != len(s.Y) {
						t.Errorf("%s %s: x/y lengths %d/%d", fig.ID, s.Label, len(s.X), len(s.Y))
					}
					if fig.Rows != nil && len(fig.Rows) != len(s.X) {
						t.Errorf("%s %s: %d rows for %d points", fig.ID, s.Label, len(fig.Rows), len(s.X))
					}
					for i, y := range s.Y {
						if math.IsNaN(y) || math.IsInf(y, 0) {
							t.Errorf("%s %s: y[%d] = %v", fig.ID, s.Label, i, y)
						}
					}
				}
			}
		})
	}
}

// TestFiguresUnknownID: an id no grid answers to is an error that lists
// the ids that exist, not an empty result.
func TestFiguresUnknownID(t *testing.T) {
	figs, err := Figures("12", tinyConfig())
	if err == nil {
		t.Fatalf("Figures(\"12\") returned %d figures and no error", len(figs))
	}
	for _, id := range FigureIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list id %q", err, id)
		}
	}
}

func TestFig4And5Structure(t *testing.T) {
	figs := figures(t, "4-5", tinyConfig(), 2)
	fig4, fig5 := figs[0], figs[1]
	cachePercents := []float64{0.5, 1, 1.5, 2, 2.5}
	for _, fig := range figs {
		if len(fig.Series) != 2 {
			t.Fatalf("%s: %d series, want 2", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.X) != len(cachePercents) || len(s.Y) != len(s.X) {
				t.Fatalf("%s %s: x/y lengths %d/%d", fig.ID, s.Label, len(s.X), len(s.Y))
			}
			for i, x := range s.X {
				if x != cachePercents[i] {
					t.Errorf("%s: x[%d] = %v", fig.ID, i, x)
				}
			}
		}
	}
	// Byte hit ratio must increase with cache size for both policies.
	for _, s := range fig5.Series {
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Errorf("fig5 %s: byte hit ratio did not grow with cache size: %v", s.Label, s.Y)
		}
	}
	// The rendered table mentions both policies.
	text := fig4.String()
	if !strings.Contains(text, "GD-LD") || !strings.Contains(text, "GD-Size") {
		t.Errorf("figure text missing series labels:\n%s", text)
	}
}

func TestFig6To8Structure(t *testing.T) {
	figs := figures(t, "6-8", tinyConfig(), 3)
	fig6 := figs[0]
	for _, fig := range figs {
		if len(fig.Series) != 3 {
			t.Fatalf("%s: %d series", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Y) != 5 {
				t.Fatalf("%s %s: %d points", fig.ID, s.Label, len(s.Y))
			}
		}
	}
	// Plain-push must be the most expensive at the highest update rate
	// even at tiny scale.
	if fig6.Series[0].Y[0] <= fig6.Series[2].Y[0] {
		t.Errorf("plain-push (%v) should exceed adaptive (%v)", fig6.Series[0].Y[0], fig6.Series[2].Y[0])
	}
}

func TestFig9aStructure(t *testing.T) {
	cfg := ExperimentConfig{Seed: 3, Duration: 150, Nodes: 40}
	fig := figures(t, "9a", cfg, 1)[0]
	if len(fig.Series) != 4 {
		t.Fatalf("%d series, want 4 (theory+sim per scheme)", len(fig.Series))
	}
	// Flooding must dominate PReCinCt in both theory and simulation at
	// the largest plotted node count.
	last := len(fig.Series[0].Y) - 1
	theoryPC, simPC := fig.Series[0].Y[last], fig.Series[1].Y[last]
	theoryFL, simFL := fig.Series[2].Y[last], fig.Series[3].Y[last]
	if theoryFL <= theoryPC {
		t.Error("theory: flooding should exceed precinct")
	}
	if simFL <= simPC {
		t.Error("simulation: flooding should exceed precinct")
	}
}

func TestFig9bStructure(t *testing.T) {
	cfg := ExperimentConfig{Seed: 3, Duration: 150}
	fig := figures(t, "9b", cfg, 1)[0]
	if len(fig.Series) != 2 {
		t.Fatalf("%d series, want 2", len(fig.Series))
	}
	theory := fig.Series[0]
	for i := 1; i < len(theory.Y); i++ {
		if theory.Y[i] >= theory.Y[i-1] {
			t.Errorf("theory curve not decreasing at %v regions", theory.X[i])
		}
	}
	// Simulation: more regions should not cost substantially more
	// energy (allow noise at tiny scale).
	sim := fig.Series[1]
	if sim.Y[len(sim.Y)-1] > sim.Y[0]*1.5 {
		t.Errorf("sim energy grew with regions: %v", sim.Y)
	}
}

func TestExtRetrievalSchemesStructure(t *testing.T) {
	fig := figures(t, "ext", tinyConfig(), 1)[0]
	if len(fig.Series) != 3 {
		t.Fatalf("%d series, want 3", len(fig.Series))
	}
	last := len(fig.Series[0].Y) - 1
	if fig.Series[1].Y[last] <= fig.Series[0].Y[last] {
		t.Errorf("flooding energy (%v) should exceed precinct (%v)",
			fig.Series[1].Y[last], fig.Series[0].Y[last])
	}
}

func TestFigureStringRendering(t *testing.T) {
	fig := Figure{
		ID: "test", Title: "A test figure", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	out := fig.String()
	for _, want := range []string{"test", "A test figure", "a", "b", "10", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
	empty := Figure{ID: "e", Title: "empty"}
	if empty.String() == "" {
		t.Error("empty figure renders nothing")
	}
}

func TestFigureCSV(t *testing.T) {
	fig := Figure{
		ID: "t", Title: "t", XLabel: "x, label",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: `b"q`, X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	csv := fig.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != `"x, label",a,"b""q"` {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10,30" || lines[2] != "2,20,40" {
		t.Errorf("rows = %q, %q", lines[1], lines[2])
	}
	if got := (Figure{XLabel: "x"}).CSV(); got != "x\n" {
		t.Errorf("empty figure CSV = %q", got)
	}
}

func TestExtSpeedSweepStructure(t *testing.T) {
	figs := figures(t, "speed", tinyConfig(), 2)
	lat, fail := figs[0], figs[1]
	if len(lat.Series) != 1 || len(fail.Series) != 1 {
		t.Fatal("speed sweep series count wrong")
	}
	if len(lat.Series[0].X) != 5 {
		t.Fatalf("speed points: %v", lat.Series[0].X)
	}
	for _, rate := range fail.Series[0].Y {
		if rate < 0 || rate > 1 {
			t.Errorf("failure rate %v out of [0,1]", rate)
		}
	}
}

func TestExtZipfSweepStructure(t *testing.T) {
	fig := figures(t, "zipf", tinyConfig(), 1)[0]
	if len(fig.Series) != 2 {
		t.Fatal("zipf sweep series count wrong")
	}
	// Higher skew should give a higher byte hit ratio for GD-LD.
	s := fig.Series[0]
	if s.Y[len(s.Y)-1] <= s.Y[0] {
		t.Errorf("byte hit ratio did not grow with skew: %v", s.Y)
	}
}

func TestFigureChart(t *testing.T) {
	fig := Figure{
		ID: "c", Title: "chart test", XLabel: "n",
		Series: []Series{
			{Label: "up", X: []float64{0, 1, 2}, Y: []float64{0, 5, 10}},
			{Label: "down", X: []float64{0, 1, 2}, Y: []float64{10, 5, 0}},
		},
	}
	out := fig.Chart(40, 10)
	for _, want := range []string{"a=up", "b=down", "chart test", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The crossing midpoint overlaps: a '*' appears.
	if !strings.Contains(out, "*") {
		t.Errorf("overlapping points not marked:\n%s", out)
	}
	if !strings.Contains((Figure{ID: "e"}).Chart(40, 10), "no data") {
		t.Error("empty figure chart should say so")
	}
	// Degenerate sizes are clamped, flat series don't divide by zero.
	flat := Figure{Series: []Series{{Label: "f", X: []float64{1, 1}, Y: []float64{2, 2}}}}
	if flat.Chart(1, 1) == "" {
		t.Error("flat chart empty")
	}
}

// TestReplicasRowRanksReplication holds the replicas row to the paper's
// fault-tolerance claim at a reduced config: under crash churn, a key
// homed in one or two replica regions besides its home region is
// answered more often than one homed in its home region alone. At this
// config (seed 1, 40 nodes, 600 s) the smallest gap is 0.18, at 12
// crashes a minute.
func TestReplicasRowRanksReplication(t *testing.T) {
	cfg := ExperimentConfig{Seed: 1, Duration: 600, Warmup: 150, Nodes: 40, Items: 200}
	fig := figures(t, "replicas", cfg, 2)[0]
	if fig.ID != "replicas-success" || len(fig.Series) != 3 {
		t.Fatalf("%s: %d series, want replicas-success with 3", fig.ID, len(fig.Series))
	}
	none := fig.Series[0]
	for _, s := range fig.Series[1:] {
		for i, rate := range s.X {
			if rate == 0 {
				continue
			}
			if s.Y[i] <= none.Y[i] {
				t.Errorf("%g crashes/min: %s completes %.3f, no higher than %s's %.3f",
					rate, s.Label, s.Y[i], none.Label, none.Y[i])
			}
		}
	}
}
