package main

// Radio hot-path benchmark suite, run via -radiojson. It measures the
// neighbor query, broadcast fan-out and whole runs, and emits a
// machine-readable JSON report so performance can be tracked across
// commits (BENCH_radio.json at the repository root holds the committed
// numbers; see DESIGN.md §Performance). The grid-vs-linear-scan ratio is
// `go test -bench Neighbors ./internal/radio`.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"precinct"
	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/radio"
	"precinct/internal/sim"
)

type benchEntry struct {
	// Name is "<benchmark>/grid/n=<nodes>", e.g.
	// "neighbors/static/grid/n=320".
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

type radioBenchReport struct {
	Go      string       `json:"go"`
	GOOS    string       `json:"goos"`
	GOARCH  string       `json:"goarch"`
	Results []benchEntry `json:"results"`
}

var radioBenchSizes = []int{80, 160, 320, 640}

// staticChannel mirrors the internal/radio benchmark topology: uniform
// random nodes in the paper's 1200x1200 m area.
func staticChannel(n int) (*radio.Channel, *sim.Scheduler) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*1200, rng.Float64()*1200)
	}
	mob, err := mobility.NewStatic(pts)
	if err != nil {
		panic(err)
	}
	sched := sim.NewScheduler()
	ch, err := radio.New(radio.DefaultConfig(), sched, mob, nil, nil)
	if err != nil {
		panic(err)
	}
	ch.SetHandler(func(radio.NodeID, radio.Frame) {})
	return ch, sched
}

func waypointChannel(n int) (*radio.Channel, *sim.Scheduler) {
	mob, err := mobility.NewWaypoint(n, mobility.DefaultWaypointConfig(), sim.NewRNG(1))
	if err != nil {
		panic(err)
	}
	sched := sim.NewScheduler()
	ch, err := radio.New(radio.DefaultConfig(), sched, mob, nil, nil)
	if err != nil {
		panic(err)
	}
	ch.SetHandler(func(radio.NodeID, radio.Frame) {})
	return ch, sched
}

func record(results *[]benchEntry, name string, r testing.BenchmarkResult) {
	*results = append(*results, benchEntry{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	})
	fmt.Printf("  %-36s %12.0f ns/op %6d allocs/op\n", name, float64(r.NsPerOp()), r.AllocsPerOp())
}

// writeRadioBench runs the suite and writes the JSON report to path.
func writeRadioBench(path string) error {
	rep := radioBenchReport{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}

	// Neighbor query, static topology (pure query cost, warm caches).
	fmt.Println("neighbor query, static topology:")
	for _, n := range radioBenchSizes {
		r := testing.Benchmark(func(b *testing.B) {
			ch, _ := staticChannel(n)
			ch.Neighbors(0) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.Neighbors(radio.NodeID(i % n))
			}
		})
		record(&rep.Results, fmt.Sprintf("neighbors/static/grid/n=%d", n), r)
	}

	// Neighbor query under waypoint mobility (includes amortized grid
	// rebuilds as the clock advances).
	fmt.Println("neighbor query, waypoint mobility:")
	for _, n := range radioBenchSizes {
		r := testing.Benchmark(func(b *testing.B) {
			ch, sched := waypointChannel(n)
			ch.Neighbors(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					at := sched.Now() + 0.25
					sched.At(at, func() {})
					sched.Run(at)
				}
				ch.Neighbors(radio.NodeID(i % n))
			}
		})
		record(&rep.Results, fmt.Sprintf("neighbors/waypoint/grid/n=%d", n), r)
	}

	// Broadcast: one-hop delivery fan-out through the same query.
	fmt.Println("broadcast:")
	for _, n := range []int{80, 320} {
		r := testing.Benchmark(func(b *testing.B) {
			ch, sched := staticChannel(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.Broadcast(radio.NodeID(i%n), 512, nil)
				if sched.Len() > 4096 {
					sched.RunAll()
				}
			}
		})
		record(&rep.Results, fmt.Sprintf("broadcast/grid/n=%d", n), r)
	}

	// End-to-end simulation runs.
	fmt.Println("end-to-end Run:")
	for _, n := range radioBenchSizes {
		r := testing.Benchmark(func(b *testing.B) {
			s := precinct.DefaultScenario()
			s.Nodes = n
			s.Items = 200
			s.Duration = 120
			s.Warmup = 30
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := precinct.Run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
		record(&rep.Results, fmt.Sprintf("run/grid/n=%d", n), r)
	}

	// Figure 4/5 wall clock at quick scale, for tracking the figure
	// pipeline end to end.
	fmt.Println("figure 4-5 wall clock:")
	t0 := time.Now()
	if _, _, err := precinct.Fig4And5(precinct.ExperimentConfig{
		Seed: 1, Duration: 300, Warmup: 100, Nodes: 40, Items: 200,
	}); err != nil {
		return err
	}
	fig45 := time.Since(t0)
	rep.Results = append(rep.Results, benchEntry{
		Name:       "fig4and5/quick",
		NsPerOp:    float64(fig45.Nanoseconds()),
		Iterations: 1,
	})
	fmt.Printf("  %-36s %12v\n", "fig4and5/quick", fig45.Round(time.Millisecond))

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}
