package precinct

// Whole-run benchmarks: the shapes of bench/'s three workloads, which
// `make profile` profiles, and a small node-count ladder. The figures and
// the design-choice sweeps are rows of experiments.go's grids table
// (`precinct-sim -fig <id>`).

import (
	"fmt"
	"testing"
)

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
