package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/mobility"
	"precinct/internal/sim"
)

func benchChannel(b testing.TB, n int, cfg Config) (*Channel, *sim.Scheduler) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*1200, rng.Float64()*1200)
	}
	mob, err := mobility.NewStatic(pts)
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	meter, err := energy.NewMeter(n, energy.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	ch, err := New(cfg, sched, mob, meter, perSenderLoss(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	ch.SetHandler(func(NodeID, Frame) {})
	return ch, sched
}

// benchWaypointChannel exercises the moving-node path: the grid serves
// most queries from a bounded-drift snapshot and rebuilds occasionally.
func benchWaypointChannel(b testing.TB, n int, cfg Config) (*Channel, *sim.Scheduler) {
	b.Helper()
	mob, err := mobility.NewWaypoint(n, mobility.DefaultWaypointConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	ch, err := New(cfg, sched, mob, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	ch.SetHandler(func(NodeID, Frame) {})
	return ch, sched
}

// scaledWaypointChannel places n waypoint nodes at the paper's density
// (80 nodes per 1200 m square, about 11 neighbors): the square grows
// with n.
func scaledWaypointChannel(b testing.TB, n int, cfg Config) (*Channel, *sim.Scheduler) {
	b.Helper()
	wcfg := mobility.DefaultWaypointConfig()
	side := 1200 * math.Sqrt(float64(n)/80)
	wcfg.Area = geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
	mob, err := mobility.NewWaypoint(n, wcfg, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	ch, err := New(cfg, sched, mob, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ch, sched
}

// beaconedConfig is the default channel with a 5 s beacon interval.
func beaconedConfig() Config {
	cfg := DefaultConfig()
	cfg.BeaconInterval = 5
	return cfg
}

// benchSizes spans the scaling range the end-to-end benchmarks use.
var benchSizes = []int{80, 160, 320, 640}

// neighborPaths are the two arms of the neighbor-query benchmarks: the
// spatial grid index, and the O(N) scan order_test.go holds it to.
var neighborPaths = []struct {
	name  string
	query func(ch *Channel, buf []Neighbor, id NodeID) []Neighbor
}{
	{"grid", func(ch *Channel, _ []Neighbor, id NodeID) []Neighbor { return ch.Neighbors(id) }},
	{"linear", func(ch *Channel, buf []Neighbor, id NodeID) []Neighbor { return appendLinearNeighbors(ch, buf[:0], id) }},
}

// BenchmarkNeighbors compares the spatial grid index against the linear
// scan on static topologies. allocs/op must be 0 for both paths in steady
// state.
func BenchmarkNeighbors(b *testing.B) {
	for _, path := range neighborPaths {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				ch, _ := benchChannel(b, n, DefaultConfig())
				buf := path.query(ch, nil, 0) // warm caches and scratch buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = path.query(ch, buf, NodeID(i%n))
				}
			})
		}
	}
}

// BenchmarkNeighborsWaypoint measures the moving-node query path,
// including amortized grid rebuilds as simulation time advances.
func BenchmarkNeighborsWaypoint(b *testing.B) {
	for _, path := range neighborPaths {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				ch, sched := benchWaypointChannel(b, n, DefaultConfig())
				buf := path.query(ch, nil, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%64 == 0 {
						// Advance the clock so positions (and the grid
						// snapshot) actually go stale.
						at := sched.Now() + 0.25
						sched.At(at, func() {})
						sched.Run(at)
					}
					buf = path.query(ch, buf, NodeID(i%n))
				}
			})
		}
	}
}

// TestNeighborsAllocFree makes the allocs/op column of the two benchmarks
// above a test at n=320: a steady-state grid query allocates nothing, on
// a static topology and across the snapshot rebuilds a moving one forces,
// and neither does a beaconed location-table query across the beacon
// refreshes. One run is 640 queries (and, moving, ten clock advances), so
// a single allocation per rebuild would read as 10, not round down to 0.
func TestNeighborsAllocFree(t *testing.T) {
	const n = 320
	static, _ := benchChannel(t, n, DefaultConfig())
	moving, movingSched := benchWaypointChannel(t, n, DefaultConfig())
	beaconed, beaconedSched := benchWaypointChannel(t, n, beaconedConfig())
	for _, tc := range []struct {
		name  string
		query func(NodeID) []Neighbor
		sched *sim.Scheduler // the clock to advance; nil keeps it still
	}{
		{"static", static.Neighbors, nil},
		{"waypoint", moving.Neighbors, movingSched},
		{"beaconed-location-table", beaconed.LocationTable, beaconedSched},
	} {
		batch := func() {
			for i := 0; i < 2*n; i++ {
				if tc.sched != nil && i%64 == 0 {
					at := tc.sched.Now() + 0.25
					tc.sched.At(at, func() {})
					tc.sched.Run(at)
				}
				tc.query(NodeID(i % n))
			}
		}
		batch() // warm caches and scratch buffers
		if avg := testing.AllocsPerRun(10, batch); avg != 0 {
			t.Errorf("%s: %d neighbor queries allocate %.0f objects, want 0", tc.name, 2*n, avg)
		}
	}
}

// BenchmarkNeighborsScale holds density at the paper's (80 nodes per
// 1200 m square, about 11 neighbors) and grows N, which benchSizes cannot
// do: they fill one fixed square, so they raise density, not N. Every
// query is at its own instant, so none is served from the remembered
// answer, and the clock moves 0.1/N s per query — a run's event rate at
// this density (scale_10k: 2.5M events in 30 s) — so the O(N) rebuild is
// amortized as a run amortizes it. Nothing in a query is sized by N, so
// ns/op should stay flat from 1k to 100k, within 1.5x for the working
// set leaving the cache; allocs/op must be 0. candidates/op is what a
// query reads, its node's candidate list, against the neighbors/op it
// returns: the slack the grid rebuilds at sets the ratio.
func BenchmarkNeighborsScale(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ch, sched := scaledWaypointChannel(b, n, DefaultConfig())
			ch.Neighbors(0) // first build and scratch buffers
			dt := 0.1 / float64(n)
			var cands, nbrs int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.Run(sched.Now() + dt)
				// A stride coprime to every n, so successive queries land
				// far apart in ID and, IDs being placed at random, in space.
				id := NodeID(i * 7919 % n)
				nbrs += len(ch.Neighbors(id))
				cands += ch.candidatesOf(id)
			}
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
			b.ReportMetric(float64(nbrs)/float64(b.N), "neighbors/op")
		})
	}
}

// BenchmarkLocationTable measures the beaconed location-table query at the
// paper's density, with the clock moving as BenchmarkNeighborsScale moves
// it so no query is served from the remembered answer. The query is one
// pass over every node — refresh the stale beacons, test each observed
// position — so ns/op grows with N, unlike a Neighbors query; allocs/op
// must be 0.
func BenchmarkLocationTable(b *testing.B) {
	for _, n := range []int{80, 2_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ch, sched := scaledWaypointChannel(b, n, beaconedConfig())
			ch.LocationTable(0) // first beacons and the buffer
			dt := 0.1 / float64(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.Run(sched.Now() + dt)
				ch.LocationTable(NodeID(i * 7919 % n))
			}
		})
	}
}

// BenchmarkBroadcast measures one-hop delivery fan-out, which funnels
// through the same neighbor query.
func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{80, 320} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ch, sched := benchChannel(b, n, DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.Broadcast(NodeID(i%n), 512, nil)
				if sched.Len() > 4096 {
					sched.RunAll()
				}
			}
		})
	}
}

func BenchmarkUnicast80Nodes(b *testing.B) {
	ch, sched := benchChannel(b, 80, DefaultConfig())
	// Find a connected pair once.
	var from, to NodeID = 0, 0
	for i := 0; i < 80 && to == from; i++ {
		if nbrs := ch.Neighbors(NodeID(i)); len(nbrs) > 0 {
			from, to = NodeID(i), nbrs[0].ID
		}
	}
	if from == to {
		b.Skip("no connected pair")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Unicast(from, to, 512, nil)
		if sched.Len() > 4096 {
			sched.RunAll()
		}
	}
}

// BenchmarkOutboxExchange measures one full cross-shard exchange batch:
// parking deliveries in the sender shard's outbox (with key
// reservation), injecting them into the receiver shard's scheduler,
// resetting the outbox in place, and firing the delivered events. This
// is the per-frame cost of shard crossing; steady state must be
// allocation-free so sharded runs stay within the pooling envelope.
func BenchmarkOutboxExchange(b *testing.B) {
	const n = 64
	const batch = 16
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*1200, rng.Float64()*1200)
	}
	counters := sim.NewCounters(n)
	build := func(self int32, shardOf []int32) (*Channel, *sim.Scheduler) {
		mob, err := mobility.NewStatic(pts)
		if err != nil {
			b.Fatal(err)
		}
		sched := sim.NewSchedulerWithCounters(counters)
		sched.SplitGlobal()
		ch, err := New(DefaultConfig(), sched, mob, nil, perSenderLoss(n, 1))
		if err != nil {
			b.Fatal(err)
		}
		ch.SetHandler(func(NodeID, Frame) {})
		ch.EnableSharding(shardOf, self, nil)
		return ch, sched
	}
	shardOf := make([]int32, n)
	for i := n / 2; i < n; i++ {
		shardOf[i] = 1
	}
	sender, _ := build(0, shardOf)
	receiver, rsched := build(1, shardOf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			to := NodeID(n/2 + j)
			sender.scheduleDelivery(0.001, to, Frame{From: 0, To: to, Size: 64})
		}
		box := sender.Outbox()
		if len(box) != batch {
			b.Fatalf("parked %d deliveries, want %d", len(box), batch)
		}
		for k := range box {
			receiver.Inject(box[k])
		}
		sender.ResetOutbox()
		rsched.RunBefore(0.002)
	}
}
