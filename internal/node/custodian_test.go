package node_test

import (
	"fmt"
	"math/rand"
	"testing"

	"precinct"
	"precinct/internal/geo"
	"precinct/internal/invariant/fuzzgen"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// world is a network built from a fuzzgen scenario's geometry: nodes,
// area, partition, mobility model and radio knobs. No traffic runs — the
// custodian queries read positions, liveness, the table and store sizes.
type world struct {
	net   *node.Network
	sched *sim.Scheduler
	nodes int
}

func buildWorld(t *testing.T, s precinct.Scenario, replicas int) *world {
	t.Helper()
	rng := sim.NewRNG(s.Seed)
	sched := sim.NewScheduler()
	area := geo.NewRect(geo.Pt(0, 0), geo.Pt(s.AreaSide, s.AreaSide))

	var mob mobility.Model
	var err error
	if s.MobilityModel == "static" {
		mob, err = mobility.NewGridStatic(s.Nodes, area, 0.25, rng.Stream("placement"))
	} else {
		mob, err = mobility.NewWaypoint(s.Nodes, mobility.WaypointConfig{
			Area: area, MinSpeed: 0.5, MaxSpeed: s.MaxSpeed, Pause: s.Pause}, rng)
	}
	if err != nil {
		t.Fatal(err)
	}

	rc := radio.DefaultConfig()
	rc.Range = s.Range
	rc.BeaconInterval = s.BeaconInterval
	ch, err := radio.New(rc, sched, mob, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	table, err := region.NewGridN(area, s.Regions)
	if err != nil {
		t.Fatal(err)
	}

	cat, err := workload.NewCatalog(workload.CatalogConfig{Items: s.Items, MinSize: 1024, MaxSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.DefaultConfig()
	cfg.Replicas = replicas // > 1 places replicas by load, so store sizes differ
	net, err := node.New(node.Options{
		Config: cfg, Scheduler: sched, Channel: ch, Regions: table,
		Catalog: cat, Collector: metrics.NewCollector(), RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{net: net, sched: sched, nodes: s.Nodes}
}

// compare holds the production custodian queries to the full scan for
// every region of the table — plus an ID it does not have — with nobody
// excluded, with the winner excluded and with a dead peer excluded.
func (w *world) compare(t *testing.T, when string, dead radio.NodeID) {
	t.Helper()
	ids := []region.ID{region.Invalid, 1 << 20}
	for _, r := range w.net.Table().Regions() {
		ids = append(ids, r.ID)
	}
	for _, id := range ids {
		first, _ := w.net.CustodiansForTest(id, -1)
		for _, exclude := range []radio.NodeID{-1, first, dead} {
			near, least := w.net.CustodiansForTest(id, exclude)
			wantNear, wantLeast := w.net.CustodiansByScanForTest(id, exclude)
			if near != wantNear || least != wantLeast {
				t.Fatalf("%s: region %d excluding %d: nearest %d least-loaded %d, full scan says %d and %d",
					when, int(id), exclude, near, least, wantNear, wantLeast)
			}
		}
	}
}

// TestCustodianQueriesMatchFullScan runs the rectangle-fed custodian
// queries against the whole-population scan over the fuzzgen seed set
// (beaconing on and off, static and waypoint peers), each scenario under
// two replica counts, at several instants of a run in which peers die
// and come back.
func TestCustodianQueriesMatchFullScan(t *testing.T) {
	var cases []precinct.Scenario
	for seed := int64(1); seed <= 24; seed++ {
		s := fuzzgen.Expand(seed)
		cases = append(cases, s, s) // the case index picks the replica count
	}
	// The scale tier's shape: hundreds of regions, a handful of peers in
	// each, some of them empty at any instant.
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, fuzzgen.ExpandScale(seed, 1000))
	}
	for i, s := range cases {
		s := s
		t.Run(fmt.Sprintf("%s-%d", s.Name, i), func(t *testing.T) {
			w := buildWorld(t, s, 1+i%3)
			rng := rand.New(rand.NewSource(s.Seed))
			dead := radio.NodeID(rng.Intn(w.nodes))
			w.compare(t, "at build", -1)

			w.sched.Run(7.3)
			w.net.Crash(dead)
			for k := 0; k < w.nodes/8; k++ {
				w.net.Crash(radio.NodeID(rng.Intn(w.nodes)))
			}
			w.compare(t, "after crashes", dead)

			w.sched.Run(31)
			w.compare(t, "after more motion", dead)

			w.net.Revive(dead)
			w.sched.Run(64.9)
			w.compare(t, "after a revive", dead)
		})
	}
}
