package cache

import (
	"math/rand"
	"slices"
	"testing"

	"precinct/internal/workload"
)

// TestInvariantMetamorphicKeyRelabeling asserts GD-LD's key-relabeling
// relation: mapping every key through a strictly monotone bijection
// σ(k) = k + 1000 and replaying the identical operation sequence must
// produce the σ-image of the original eviction sequence and identical
// hit/miss/inflation trajectories. Monotonicity matters because the
// eviction tie-break compares keys; any order-preserving σ leaves every
// comparison outcome unchanged, so the runs must agree exactly.
func TestInvariantMetamorphicKeyRelabeling(t *testing.T) {
	const shift = 1000

	type op struct {
		get  bool
		key  workload.Key
		size int
		dist float64
		now  float64
	}
	rng := rand.New(rand.NewSource(1701))
	ops := make([]op, 0, 400)
	for i := 0; i < 400; i++ {
		o := op{
			key: workload.Key(rng.Intn(40)),
			now: float64(i),
		}
		if rng.Intn(3) == 0 {
			o.get = true
		} else {
			o.size = 512 + 256*rng.Intn(8)
			o.dist = float64(100 * rng.Intn(9))
		}
		ops = append(ops, o)
	}

	run := func(relabel bool) (*Cache, []workload.Key, []bool) {
		pol, err := NewGDLD(DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(8192, pol)
		if err != nil {
			t.Fatal(err)
		}
		var evictions []workload.Key
		var hits []bool
		for _, o := range ops {
			k := o.key
			if relabel {
				k += shift
			}
			if o.get {
				_, hit := c.Get(k, o.now)
				hits = append(hits, hit)
				continue
			}
			ev, ok := c.Put(Entry{Key: k, Size: o.size, RegionDist: o.dist}, o.now)
			if !ok {
				t.Fatalf("Put %d refused", k)
			}
			for _, e := range ev {
				evictions = append(evictions, e.Key)
			}
		}
		return c, evictions, hits
	}

	base, baseEv, baseHits := run(false)
	rel, relEv, relHits := run(true)

	if len(baseEv) == 0 {
		t.Fatal("op sequence caused no evictions; the relation is vacuous")
	}
	if len(baseEv) != len(relEv) {
		t.Fatalf("eviction counts diverged: %d vs %d", len(baseEv), len(relEv))
	}
	for i := range baseEv {
		if baseEv[i]+shift != relEv[i] {
			t.Fatalf("eviction %d: σ(%d) = %d, relabeled run evicted %d",
				i, baseEv[i], baseEv[i]+shift, relEv[i])
		}
	}
	if !slices.Equal(baseHits, relHits) {
		t.Fatalf("hit/miss sequences diverged:\n%v\n%v", baseHits, relHits)
	}
	if base.Inflation() != rel.Inflation() {
		t.Fatalf("inflation floor diverged: %g vs %g", base.Inflation(), rel.Inflation())
	}
	if base.Used() != rel.Used() || base.Len() != rel.Len() {
		t.Fatalf("occupancy diverged: %d/%d vs %d/%d",
			base.Used(), base.Len(), rel.Used(), rel.Len())
	}
	baseKeys, relKeys := base.Keys(), rel.Keys()
	for i := range baseKeys {
		if baseKeys[i]+shift != relKeys[i] {
			t.Fatalf("resident key %d: σ(%d) != %d", i, baseKeys[i], relKeys[i])
		}
	}
}
