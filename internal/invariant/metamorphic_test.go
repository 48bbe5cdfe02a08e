package invariant_test

import (
	"math/rand"
	"reflect"
	"testing"

	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// permRun is everything one permuted network run produces.
type permRun struct {
	net   *node.Network
	rep   metrics.Report
	stats node.Stats
	radio radio.Stats
}

// runPermuted builds a static 16-node network where node perm[r] plays
// role r: it stands at role r's position and issues role r's requests,
// updates and faults. perm == identity gives the reference run.
//
// The setup is engineered so that outcomes depend only on geometry, never
// on node-ID tie-breaking: generic (non-grid) positions avoid equidistant
// ties, replication and caching are off so every key has exactly one
// answerer, and the channel is lossless so no RNG is
// consumed. Under these conditions relabeling node IDs must leave every
// aggregate observable bit-identical.
func runPermuted(t *testing.T, perm []int) permRun {
	t.Helper()
	const n = 16
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(600, 600))
	posRNG := rand.New(rand.NewSource(42))
	rolePos := make([]geo.Point, n)
	for r := range rolePos {
		rolePos[r] = geo.Pt(20+560*posRNG.Float64(), 20+560*posRNG.Float64())
	}
	pos := make([]geo.Point, n)
	for r, id := range perm {
		pos[id] = rolePos[r]
	}
	mob, err := mobility.NewStatic(pos)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	rng := sim.NewRNG(7)
	ch, err := radio.New(radio.DefaultConfig(), sched, mob, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := region.NewGrid(area, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(workload.CatalogConfig{Items: 60, MinSize: 1024, MaxSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.DefaultConfig()
	cfg.CacheBytes = 0
	cfg.EnRoute = false
	cfg.Replicas = 0
	cfg.Warmup = 0
	coll := metrics.NewCollector()
	net, err := node.New(node.Options{
		Config: cfg, Scheduler: sched, Channel: ch,
		Regions: table, Catalog: cat, Collector: coll, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Role-indexed workload: distinct times keep same-time tie-breaking
	// out of the picture.
	reqs := []struct {
		at   float64
		role int
		key  workload.Key
	}{
		{5.1, 0, 3}, {7.3, 4, 17}, {9.8, 9, 3}, {12.2, 2, 41},
		{15.7, 11, 8}, {18.4, 6, 55}, {21.9, 14, 17}, {25.3, 1, 29},
		{31.6, 7, 41}, {35.2, 13, 0}, {41.8, 3, 8}, {47.4, 10, 55},
	}
	for _, q := range reqs {
		id := radio.NodeID(perm[q.role])
		key := q.key
		sched.At(q.at, func() { net.RequestFrom(id, key) })
	}
	quitID := radio.NodeID(perm[5])
	crashID := radio.NodeID(perm[12])
	sched.At(28.5, func() { net.Quit(quitID) })
	sched.At(33.5, func() { net.Crash(crashID) })
	sched.At(52.5, func() { net.Revive(crashID) })

	rep := net.Run(80)
	return permRun{net: net, rep: rep, stats: net.Stats(), radio: ch.Stats()}
}

// TestInvariantMetamorphicNodeIDPermutation asserts the node-ID
// relabeling relation: permuting which node plays which role changes no
// aggregate observable, and maps per-node state through the permutation.
func TestInvariantMetamorphicNodeIDPermutation(t *testing.T) {
	const n = 16
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	base := runPermuted(t, identity)
	if base.rep.Requests == 0 || base.rep.Completed == 0 {
		t.Fatalf("reference run served nothing: %+v", base.rep)
	}
	if base.stats.Handoffs == 0 {
		t.Fatalf("reference run exercised no handoffs: %+v", base.stats)
	}

	perms := [][]int{
		{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14},
	}
	for pi, perm := range perms {
		got := runPermuted(t, perm)
		if !reflect.DeepEqual(base.rep, got.rep) {
			t.Errorf("perm %d: Report diverged:\nbase: %+v\ngot:  %+v", pi, base.rep, got.rep)
		}
		if base.stats != got.stats {
			t.Errorf("perm %d: protocol Stats diverged:\nbase: %+v\ngot:  %+v", pi, base.stats, got.stats)
		}
		if base.radio != got.radio {
			t.Errorf("perm %d: radio Stats diverged:\nbase: %+v\ngot:  %+v", pi, base.radio, got.radio)
		}
		// Per-node state must map through the permutation: the node
		// playing role r ends up with role r's store.
		for r := 0; r < n; r++ {
			want := base.net.Peer(radio.NodeID(r)).Store().Keys()
			have := got.net.Peer(radio.NodeID(perm[r])).Store().Keys()
			if !reflect.DeepEqual(want, have) {
				t.Errorf("perm %d: role %d store diverged: want %v, have %v", pi, r, want, have)
			}
		}
	}
}
