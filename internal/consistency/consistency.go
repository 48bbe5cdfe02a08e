// Package consistency holds the cache-consistency machinery shared by the
// three schemes the paper compares:
//
//   - Plain-Push: the updating peer floods an invalidation through the
//     whole network (Cao & Liu).
//   - Pull-Every-time: a peer validates its cached copy with the item's
//     home region on every single hit (Gwertzman & Seltzer).
//   - Push with Adaptive Pull: the paper's hybrid — updates are pushed
//     only to the home and replica regions; every cached copy carries a
//     Time-to-Refresh (TTR) and is used without validation until the TTR
//     expires, after which the peer polls the home region.
//
// The TTR is maintained by the home region per item with exponential
// smoothing over observed update intervals (Equation 2):
//
//	TTR = alpha*TTR + (1-alpha)*t_upd_intvl
//
// The message choreography, and the version and TTR bookkeeping of a
// stored item (node.(*Network).applyStoredUpdate), live in internal/node;
// this package owns the scheme identifiers, configuration, the smoothing
// rule and its invariant bound.
package consistency

import (
	"fmt"
	"math"

	"precinct/internal/cache"
)

// Scheme selects a consistency algorithm.
type Scheme int

// The consistency schemes under comparison.
const (
	// None disables consistency maintenance entirely (read-only data).
	None Scheme = iota
	// PlainPush floods invalidations network-wide on every update.
	PlainPush
	// PullEveryTime validates with the home region on every cache hit.
	PullEveryTime
	// PushAdaptivePull is the paper's hybrid push/pull scheme.
	PushAdaptivePull
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case PlainPush:
		return "plain-push"
	case PullEveryTime:
		return "pull-every-time"
	case PushAdaptivePull:
		return "push-adaptive-pull"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme converts a name (as printed by String) back to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "none":
		return None, nil
	case "plain-push":
		return PlainPush, nil
	case "pull-every-time":
		return PullEveryTime, nil
	case "push-adaptive-pull":
		return PushAdaptivePull, nil
	default:
		return None, fmt.Errorf("consistency: unknown scheme %q", name)
	}
}

// Config parameterizes the consistency layer.
type Config struct {
	Scheme Scheme
	// Alpha weighs past TTR against the latest observed update interval
	// (Equation 2); must be in [0, 1). Higher alpha = smoother/slower
	// adaptation.
	Alpha float64
	// InitialTTR seeds an item's TTR before any update has been
	// observed, in seconds.
	InitialTTR float64
}

// DefaultConfig uses a moderately smoothed TTR seeded at the paper's mean
// request interval.
func DefaultConfig(s Scheme) Config {
	return Config{Scheme: s, Alpha: 0.5, InitialTTR: 30}
}

// Validate checks parameter ranges.
func (c Config) Validate() error {
	if c.Scheme < None || c.Scheme > PushAdaptivePull {
		return fmt.Errorf("consistency: unknown scheme %d", int(c.Scheme))
	}
	if c.Alpha < 0 || c.Alpha >= 1 {
		return fmt.Errorf("consistency: alpha must be in [0, 1), got %v", c.Alpha)
	}
	if c.InitialTTR <= 0 {
		return fmt.Errorf("consistency: initial TTR must be positive, got %v", c.InitialTTR)
	}
	return nil
}

// SmoothTTR applies Equation 2: the new TTR after observing an update
// interval.
func SmoothTTR(alpha, prevTTR, updateInterval float64) float64 {
	return float64(alpha*prevTTR) + float64((1-alpha)*updateInterval)
}

// CheckSmoothingBound verifies that next is a valid result of Equation 2
// applied to (alpha, prev, interval): with alpha in [0, 1), the smoothed
// TTR is a convex combination of the previous TTR and the observed update
// interval, so it must lie in [min(prev, interval), max(prev, interval)];
// it must also be finite, non-negative, and strictly positive whenever
// alpha > 0 and the previous TTR was positive. The invariant checker calls
// this on every TTR update the consistency layer performs.
func CheckSmoothingBound(alpha, prev, interval, next float64) error {
	if math.IsNaN(next) || math.IsInf(next, 0) {
		return fmt.Errorf("consistency: smoothed TTR %v is not finite", next)
	}
	if next < 0 {
		return fmt.Errorf("consistency: smoothed TTR %v is negative", next)
	}
	if alpha > 0 && prev > 0 && next <= 0 {
		return fmt.Errorf("consistency: smoothed TTR collapsed to %v from prev %v (alpha %v)", next, prev, alpha)
	}
	lo, hi := prev, interval
	if lo > hi {
		lo, hi = hi, lo
	}
	// Tolerate float rounding at the interval edges.
	eps := float64(1e-9 * (1 + math.Abs(hi)))
	if next < lo-eps || next > hi+eps {
		return fmt.Errorf("consistency: smoothed TTR %v outside [%v, %v] (alpha %v, prev %v, interval %v)",
			next, lo, hi, alpha, prev, interval)
	}
	return nil
}

// Fresh reports whether a cached entry may be served without validation
// under the given scheme at time now.
//
//   - None and PlainPush trust the cached copy (PlainPush relies on
//     invalidations having removed stale ones).
//   - PullEveryTime never trusts it.
//   - PushAdaptivePull trusts it until the TTR expiry.
func Fresh(s Scheme, e *cache.Entry, now float64) bool {
	switch s {
	case None, PlainPush:
		return true
	case PullEveryTime:
		return false
	case PushAdaptivePull:
		return now < e.TTRExpiry
	default:
		return true
	}
}
