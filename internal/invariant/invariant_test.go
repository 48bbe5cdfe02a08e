package invariant

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"precinct/internal/cache"
	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/node"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// TestConservationHoldsMeterToFrames hands the conservation checker a
// channel that sent one broadcast and one unicast, and a meter charged
// by it, then one charge the channel never made: a doubled send, or an
// addressed reception without a send. Each must be a violation.
func TestConservationHoldsMeterToFrames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra energy.Class
		want  string
	}{
		{"clean", -1, ""},
		{"doubled-broadcast-send", energy.BroadcastSend, "broadcast-send charges 2 > broadcast frames 1"},
		{"doubled-p2p-send", energy.P2PSend, "p2p-send charges 2 > unicast frames 1"},
		{"p2p-recv-without-send", energy.P2PRecv, "p2p-recv charges 2 > p2p-send charges 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mob, err := mobility.NewStatic([]geo.Point{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(200, 0)})
			if err != nil {
				t.Fatal(err)
			}
			meter, err := energy.NewMeter(mob.Len(), energy.DefaultModel())
			if err != nil {
				t.Fatal(err)
			}
			sched := sim.NewScheduler()
			ch, err := radio.New(radio.DefaultConfig(), sched, mob, meter, nil)
			if err != nil {
				t.Fatal(err)
			}
			ch.SetHandler(func(radio.NodeID, radio.Frame) {})
			ch.Broadcast(1, 100, nil)
			ch.Unicast(0, 1, 100, nil)
			sched.RunAll()
			if tc.extra >= 0 {
				meter.Charge(1, tc.extra, 100)
			}

			got := sweepConservation(&Context{Ch: ch, Meter: meter})
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("clean run reported %q", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], tc.want) {
				t.Fatalf("got %q, want one violation naming %q", got, tc.want)
			}
		})
	}
}

// staticNet attaches a runner to a 16-node static network in the shape
// of the metamorphic suite's, with no caching and no replica region. It
// runs nothing and empties the stores the build seeded: each test plants
// the state it checks.
func staticNet(t *testing.T) (*Runner, *Context) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	pos := make([]geo.Point, 16)
	for i := range pos {
		pos[i] = geo.Pt(20+560*rng.Float64(), 20+560*rng.Float64())
	}
	mob, err := mobility.NewStatic(pos)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	ch, err := radio.New(radio.DefaultConfig(), sched, mob, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := region.NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(600, 600)), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := workload.NewCatalog(workload.CatalogConfig{Items: 60, MinSize: 1024, MaxSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.DefaultConfig()
	cfg.CacheBytes = 0
	cfg.Replicas = 0
	net, err := node.New(node.Options{
		Config: cfg, Scheduler: sched, Channel: ch, Regions: table,
		Catalog: cat, Collector: metrics.NewCollector(), RNG: sim.NewRNG(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.Peers(); i++ {
		st := net.Peer(radio.NodeID(i)).Store()
		for _, k := range st.Keys() {
			st.Remove(k)
		}
	}
	r := New()
	r.Attach(Context{Net: net, Ch: ch, Sched: sched, Catalog: cat})
	return r, r.ctx
}

// TestCustodySweepKeyOrder: two live peers holding primary copies of the
// same keys are reported key by key in ascending order, and the same way
// on every sweep, so which violations fit under the cap never depends on
// map iteration order.
func TestCustodySweepKeyOrder(t *testing.T) {
	_, ctx := staticNet(t)
	keys := []workload.Key{41, 3, 17, 8, 55, 29}
	for _, id := range []radio.NodeID{4, 11} {
		for _, k := range keys {
			ctx.Net.Peer(id).Store().Put(cache.StoredItem{Key: k, Size: 1024})
		}
	}
	var want []string
	for _, k := range []int{3, 8, 17, 29, 41, 55} {
		want = append(want, fmt.Sprintf("key %d has 2 live primary custodians", k))
	}
	for i := 0; i < 20; i++ {
		if got := sweepCustody(ctx); !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep %d:\ngot  %q\nwant %q", i, got, want)
		}
	}
}

// TestEventChecks: the admission and Equation 2 event checks record
// exactly one violation under their catalog name when the rule breaks,
// and none when it holds.
func TestEventChecks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fire  func(*Runner)
		fired string
	}{
		{"admit-own-region", func(r *Runner) { r.OnCacheAdmit(2, 1, 1, 9) }, "admission"},
		{"admit-other-region", func(r *Runner) { r.OnCacheAdmit(2, 1, 3, 9) }, ""},
		{"ttr-inside-hull", func(r *Runner) { r.OnTTRSmoothed(2, 9, 0.5, 10, 30, 20) }, ""},
		{"ttr-above-hull", func(r *Runner) { r.OnTTRSmoothed(2, 9, 0.5, 10, 30, 31) }, "ttr"},
		{"ttr-below-hull", func(r *Runner) { r.OnTTRSmoothed(2, 9, 0.5, 30, 10, 9) }, "ttr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := staticNet(t)
			tc.fire(r)
			rep := r.Report()
			if tc.fired == "" {
				if !rep.Ok() {
					t.Fatalf("clean event reported %v", rep.Violations)
				}
				return
			}
			if rep.TotalViolations != 1 || len(rep.Violations) != 1 || rep.Violations[0].Checker != tc.fired {
				t.Fatalf("got %d violation(s) %v, want one %q", rep.TotalViolations, rep.Violations, tc.fired)
			}
		})
	}
}

// TestViolationNamesAreTheCatalog: the checks table runs DESIGN.md
// section 9's sweeps in its order, and a run breaking the sweeps and all
// three event checks records violations under the catalog's eight names
// only.
func TestViolationNamesAreTheCatalog(t *testing.T) {
	var catalog []string
	for _, c := range checks {
		catalog = append(catalog, c.name)
	}
	if want := []string{"cache", "custody", "ttr", "conservation", "liveness", "scheduler", "region"}; !reflect.DeepEqual(catalog, want) {
		t.Fatalf("checks table %v, want %v", catalog, want)
	}
	catalog = append(catalog, "admission")

	r, ctx := staticNet(t)
	for _, id := range []radio.NodeID{4, 11} {
		ctx.Net.Peer(id).Store().Put(cache.StoredItem{Key: 3, Size: 1024})
	}
	ctx.Net.Peer(7).Store().Put(cache.StoredItem{Key: 5, Size: 1024, TTR: -1})
	r.OnCacheAdmit(2, 1, 1, 9)
	r.OnTTRSmoothed(2, 9, 0.5, 10, 30, 31)
	r.AfterRehome(ctx.Net.Peer(4), true)
	r.Sweep()
	r.Finalize()
	seen := map[string]bool{}
	for _, v := range r.Report().Violations {
		if !slices.Contains(catalog, v.Checker) {
			t.Errorf("violation under %q, outside the catalog: %v", v.Checker, v)
		}
		seen[v.Checker] = true
	}
	for _, name := range []string{"admission", "custody", "ttr"} {
		if !seen[name] {
			t.Errorf("no %q violation among %v", name, r.Report().Violations)
		}
	}
}
