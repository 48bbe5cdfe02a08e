package consistency

import (
	"math"
	"testing"
	"testing/quick"

	"precinct/internal/cache"
)

func TestSchemeStrings(t *testing.T) {
	for _, s := range []Scheme{None, PlainPush, PullEveryTime, PushAdaptivePull} {
		parsed, err := ParseScheme(s.String())
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", s.String(), err)
		}
		if parsed != s {
			t.Errorf("round trip %v -> %v", s, parsed)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme parsed")
	}
	if Scheme(42).String() != "scheme(42)" {
		t.Error("unknown scheme String")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(PushAdaptivePull).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Scheme: Scheme(-1), Alpha: 0.5, InitialTTR: 30},
		{Scheme: Scheme(9), Alpha: 0.5, InitialTTR: 30},
		{Scheme: PlainPush, Alpha: -0.1, InitialTTR: 30},
		{Scheme: PlainPush, Alpha: 1.0, InitialTTR: 30},
		{Scheme: PlainPush, Alpha: 0.5, InitialTTR: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSmoothTTR(t *testing.T) {
	// Equation 2 with alpha=0.5: midpoint of prev and interval.
	if got := SmoothTTR(0.5, 100, 50); got != 75 {
		t.Errorf("SmoothTTR = %v, want 75", got)
	}
	// alpha=0: pure latest interval.
	if got := SmoothTTR(0, 100, 50); got != 50 {
		t.Errorf("SmoothTTR(alpha=0) = %v, want 50", got)
	}
}

func TestFreshSemantics(t *testing.T) {
	e := &cache.Entry{TTRExpiry: 100}
	if !Fresh(None, e, 500) {
		t.Error("None must always trust the cache")
	}
	if !Fresh(PlainPush, e, 500) {
		t.Error("PlainPush trusts the cache (invalidation-based)")
	}
	if Fresh(PullEveryTime, e, 0) {
		t.Error("PullEveryTime must never trust the cache")
	}
	if !Fresh(PushAdaptivePull, e, 99) {
		t.Error("adaptive: fresh before TTR expiry")
	}
	if Fresh(PushAdaptivePull, e, 100) {
		t.Error("adaptive: stale at TTR expiry")
	}
}

// Property: SmoothTTR output always lies between its two inputs.
func TestSmoothTTRBounded(t *testing.T) {
	f := func(alphaRaw uint8, prevRaw, intervalRaw uint16) bool {
		alpha := float64(alphaRaw) / 256 // [0, 1)
		prev := float64(prevRaw)
		interval := float64(intervalRaw)
		got := SmoothTTR(alpha, prev, interval)
		lo, hi := math.Min(prev, interval), math.Max(prev, interval)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
