package cache

// The policy contract battery (DESIGN.md section 16): every registered
// policy is held to the properties the cache machinery assumes, driven
// from the registry so a newly registered policy is enrolled
// automatically. The obligations are the ones the eviction engine relies
// on — deterministic pure utilities, monotone greedy-dual aging for Aged
// policies, and the strict (Utility, Key) victim order that makes the
// heap and linear backends provably pick the same victim.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"precinct/internal/workload"
)

// genEntries draws fuzzed-but-valid entries: positive sizes, finite
// bookkeeping, the ranges the simulator actually produces.
func genEntries(seed int64, n int) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		e := Entry{
			Key:         workload.Key(rng.Intn(1000)),
			Size:        1 + rng.Intn(16*1024),
			Version:     uint64(rng.Intn(50)),
			AccessCount: rng.Intn(500),
			RegionDist:  float64(rng.Intn(4000)),
			LastAccess:  rng.Float64() * 1e5,
			FetchedAt:   rng.Float64() * 1e5,
			TTRExpiry:   rng.Float64() * 1e5,
		}
		if rng.Intn(10) == 0 {
			e.TTRExpiry = math.Inf(1) // "never stale" is a legal state
		}
		out = append(out, e)
	}
	return out
}

// TestPolicyContract runs the per-policy obligations for every
// registered policy.
func TestPolicyContract(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := policyForTest(t, name)
			if p.Name() == "" {
				t.Fatal("policy has an empty display name")
			}

			// Utilities are pure, deterministic, and finite: calling
			// Utility must not mutate the entry, must return the same
			// value twice, and must never produce NaN or infinities on
			// valid entries.
			for i, e := range genEntries(int64(1000+seedOffset(name)), 400) {
				before := e
				u1 := p.Utility(&e)
				u2 := p.Utility(&e)
				if e != before {
					t.Fatalf("entry %d: Utility mutated the entry:\nbefore %+v\nafter  %+v", i, before, e)
				}
				if u1 != u2 {
					t.Fatalf("entry %d: Utility is nondeterministic: %g then %g", i, u1, u2)
				}
				if math.IsNaN(u1) || math.IsInf(u1, 0) {
					t.Fatalf("entry %d: Utility %g on valid entry %+v", i, u1, before)
				}
			}

			// The greedy-dual aging floor L is monotone under Aged
			// policies — it only ever rises to a victim's utility — and
			// stays identically zero under non-aged policies. Replay a
			// heavy fuzzed stream and watch the floor after every op.
			c, err := New(8192, p)
			if err != nil {
				t.Fatal(err)
			}
			prev := c.Inflation()
			if prev != 0 {
				t.Fatalf("fresh cache has aging floor %g, want 0", prev)
			}
			for opIdx, o := range genOps(int64(77+seedOffset(name)), 1500) {
				switch o.kind {
				case 0:
					c.Put(Entry{Key: o.key, Size: o.size, RegionDist: o.dist, Version: o.version}, o.now)
				case 1:
					c.Get(o.key, o.now)
				case 2:
					c.Update(o.key, o.version, o.now+30)
				}
				l := c.Inflation()
				if !p.Aged() && l != 0 {
					t.Fatalf("op %d: non-aged policy produced aging floor %g", opIdx, l)
				}
				if l < prev {
					t.Fatalf("op %d: aging floor decreased %g -> %g", opIdx, prev, l)
				}
				prev = l
			}
			if c.Evictions() == 0 {
				t.Fatal("contract stream caused no evictions; the aging obligation is vacuous")
			}

			// Strict (Utility, Key) victim order: entries with identical
			// bookkeeping have identical utilities under every pure
			// policy, so the victim must be the lowest key.
			tie, err := New(1<<20, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []workload.Key{9, 3, 7, 5} {
				tie.Put(Entry{Key: k, Size: 1024, RegionDist: 200}, 10)
			}
			if v := tie.index.min(); v == nil || v.Key != 3 {
				t.Fatalf("victim among equal utilities is %+v, want key 3", v)
			}
		})
	}
}

// seedOffset derives a stable per-policy seed offset from the registry name so
// each policy replays a distinct stream.
func seedOffset(name string) int {
	h := 0
	for _, r := range name {
		h = h*31 + int(r)
	}
	if h < 0 {
		h = -h
	}
	return h % 1000
}

// TestPolicyContractHeapLinearVictimAgreement holds the heap index to
// the linear scan (replay, heap_test.go) on the contract battery's own
// stream, for every registered policy.
func TestPolicyContractHeapLinearVictimAgreement(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			c, err := New(4096, policyForTest(t, name))
			if err != nil {
				t.Fatal(err)
			}
			replay(t, c, genOps(4242, 1200))
		})
	}
}

// TestRegistry pins the registry semantics the rest of the lab depends
// on: sorted stable names, self-diagnosing unknown-name errors,
// duplicate registration panics, and weight pass-through for the
// weighted policies.
func TestRegistry(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	want := []string{"gd-ld", "gd-size", "gdsf", "lfu", "lru", "pop-dist", "pop-rank"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registered policies %v, want %v", names, want)
	}

	if _, err := NewPolicy("no-such-policy", Params{}); err == nil {
		t.Fatal("unknown policy name did not error")
	}

	// The zero Params select documented defaults for the weighted
	// policies; explicit weights pass through.
	p, err := NewPolicy("gd-ld", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if g := p.(*GDLD); g.W != DefaultWeights() {
		t.Fatalf("zero Params produced weights %+v, want defaults", g.W)
	}
	custom := Weights{WR: 2, WD: 0.5, WS: 1}
	p, err = NewPolicy("pop-dist", Params{Weights: custom})
	if err != nil {
		t.Fatal(err)
	}
	if g := p.(*PopDist); g.W != custom {
		t.Fatalf("custom weights %+v came through as %+v", custom, g.W)
	}
	if _, err := NewPolicy("gd-ld", Params{Weights: Weights{WR: -1}}); err == nil {
		t.Fatal("invalid weights did not error")
	}

	for _, fn := range []func(){
		func() { Register("", func(Params) (Policy, error) { return LRU{}, nil }) },
		func() { Register("x-nil", nil) },
		func() { Register("lru", func(Params) (Policy, error) { return LRU{}, nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad Register call did not panic")
				}
			}()
			fn()
		}()
	}
}
