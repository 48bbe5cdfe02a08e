package cache

import (
	"math"
	"testing"

	"precinct/internal/workload"
)

// TestGDLDRegressionHandComputed pins the GD-LD arithmetic to values
// computed by hand from the paper's definition:
//
//	u(e) = wr*ac + wd*reg_dst + ws/size          (raw utility)
//	U(e) = L + u(e)                              (aged utility)
//	L    = U(victim) after each eviction          (inflation floor)
//
// with DefaultWeights (wr = 1, wd = 1/400, ws = 4096) and a 3072-byte
// cache. Any change to the weights, the aging rule, or the tie-break
// order shows up as a concrete number here.
func TestGDLDRegressionHandComputed(t *testing.T) {
	pol, err := NewGDLD(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(3072, pol)
	if err != nil {
		t.Fatal(err)
	}

	approx := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s = %g, want %g", what, got, want)
		}
	}
	utility := func(k workload.Key) float64 {
		t.Helper()
		e, ok := c.Peek(k)
		if !ok {
			t.Fatalf("key %d not cached", k)
		}
		return e.Utility
	}

	// Put A (key 1, 1024 B, 400 m): u = 0 + 400/400 + 4096/1024 = 5.
	// The cache is empty, L = 0, so U(A) = 5.
	if _, ok := c.Put(Entry{Key: 1, Size: 1024, RegionDist: 400}, 1.0); !ok {
		t.Fatal("Put A refused")
	}
	approx("U(A)", utility(1), 5)
	approx("L after A", c.Inflation(), 0)

	// Put B (key 2, 2048 B, 800 m): u = 0 + 800/400 + 4096/2048 = 4.
	// Fits exactly (1024+2048 = 3072), no eviction, U(B) = 4.
	if _, ok := c.Put(Entry{Key: 2, Size: 2048, RegionDist: 800}, 2.0); !ok {
		t.Fatal("Put B refused")
	}
	approx("U(B)", utility(2), 4)

	// Get B: the hit bumps AccessCount to 1 and re-ages,
	// U(B) = L + (1 + 2 + 2) = 5. Now A and B tie at 5.
	if _, ok := c.Get(2, 3.0); !ok {
		t.Fatal("Get B missed")
	}
	approx("U(B) after hit", utility(2), 5)

	// Put C (key 3, 1024 B, 0 m): needs an eviction. A and B both have
	// U = 5; the tie must break to the smaller key, so A (key 1) is the
	// victim. L rises to U(A) = 5 and U(C) = L + (0 + 0 + 4) = 9.
	evicted, ok := c.Put(Entry{Key: 3, Size: 1024, RegionDist: 0}, 4.0)
	if !ok {
		t.Fatal("Put C refused")
	}
	if len(evicted) != 1 || evicted[0].Key != 1 {
		t.Fatalf("Put C evicted %v, want exactly [key 1]", evicted)
	}
	approx("L after evicting A", c.Inflation(), 5)
	approx("U(C)", utility(3), 9)

	// Put D (key 4, 2048 B, 400 m): another eviction. B (U = 5) loses to
	// C (U = 9), L stays 5 (monotone: the floor never decreases), and
	// U(D) = L + (0 + 1 + 2) = 8.
	evicted, ok = c.Put(Entry{Key: 4, Size: 2048, RegionDist: 400}, 5.0)
	if !ok {
		t.Fatal("Put D refused")
	}
	if len(evicted) != 1 || evicted[0].Key != 2 {
		t.Fatalf("Put D evicted %v, want exactly [key 2]", evicted)
	}
	approx("L after evicting B", c.Inflation(), 5)
	approx("U(D)", utility(4), 8)

	// Get C: re-access under the raised floor. AccessCount becomes 1, so
	// U(C) = L + (1 + 0 + 4) = 10 — re-aged against the *current* L, not
	// the L at insertion time.
	if _, ok := c.Get(3, 6.0); !ok {
		t.Fatal("Get C missed")
	}
	approx("U(C) after hit", utility(3), 10)

	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if got := c.Evictions(); got != 2 {
		t.Fatalf("Evictions = %d, want 2", got)
	}
}
