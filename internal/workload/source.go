package workload

import "math/rand"

// Locator resolves a peer's current position in meters. The node layer
// provides an adapter over the radio channel; geo-aware sources (the
// region-correlated hotspot) call it lazily, so sources that ignore
// geometry cost the simulation no position lookups at all.
type Locator interface {
	Locate(peer int) (x, y float64)
}

// Ctx carries the per-event context a Source may consult when drawing
// a key. RNG is the requesting peer's own stream — every draw a source
// makes must come from it (or from a dedicated stream the source
// registered at build time), never from global state, so runs stay
// deterministic. Only the geo-aware hotspot source reads Loc.
type Ctx struct {
	Peer int
	Now  float64
	RNG  *rand.Rand
	Loc  Locator
}

// Source is the workload contract: it answers "for which key" when a
// peer's request or update fires; when it fires is Arrivals' business.
// Implementations must be deterministic given the Ctx stream states and
// must draw the same number of variates for the same call sequence
// regardless of wall conditions, so that a re-run replays
// bit-identically.
type Source interface {
	// PickKey draws the key of a request firing now.
	PickKey(c Ctx) Key
	// PickUpdateKey draws the target of an update firing now.
	PickUpdateKey(c Ctx) Key
}

// Source kind names, as they appear in Scenario.Workload.
const (
	KindDefault    = "default"
	KindFlashCrowd = "flash-crowd"
	KindDiurnal    = "diurnal"
	KindHotspot    = "hotspot"
	KindRankChurn  = "rank-churn"
)

// DefaultSource adapts the stationary Zipf Generator to the Source
// interface. It delegates every draw to the generator with the context's
// RNG in the same order the pre-Source code used, so the default
// workload path stays byte-identical to the original behavior (pinned by
// TestWorkloadDefaultGolden at the repository root).
type DefaultSource struct {
	Gen *Generator
}

// PickKey draws a Zipf-popular key.
func (s DefaultSource) PickKey(c Ctx) Key { return s.Gen.PickKey(c.RNG) }

// PickUpdateKey draws an update target.
func (s DefaultSource) PickUpdateKey(c Ctx) Key { return s.Gen.PickUpdateKey(c.RNG) }

// splitmix64 is the SplitMix64 mixer, used to derive per-source
// constants (hotset membership, per-cell popularity) from the scenario
// seed without touching any RNG stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
