package node

// Adaptive region management — the paper's future work ("a dynamic region
// management scheme needs to be investigated to make PReCinCt adaptive to
// real network environments"). A periodic controller watches per-region
// population and reshapes the partition with the Section 2.1 operations:
//
//   - a region holding more than SplitAbove live peers is Separated, so
//     its localized floods stay small;
//   - a pair of adjacent regions whose combined population is below
//     MergeBelow is Merged, so sparse areas do not fragment into regions
//     too empty to host their keys.
//
// Every reshape rides the normal table-dissemination flood and key
// relocation machinery, so its cost is visible in the maintenance
// counters.

import (
	"fmt"

	"precinct/internal/region"
)

// AdaptiveConfig parameterizes the dynamic region controller.
type AdaptiveConfig struct {
	// Enabled turns the controller on.
	Enabled bool
	// Interval is how often the controller inspects the partition,
	// seconds.
	Interval float64
	// SplitAbove splits any region with more live peers than this.
	SplitAbove int
	// MergeBelow merges adjacent regions whose combined live population
	// is below this.
	MergeBelow int
	// MaxRegions and MinRegions bound the partition size.
	MaxRegions int
	MinRegions int
}

// DefaultAdaptiveConfig reshapes conservatively: split past ~2× the mean
// population of a 9-region/80-peer network, merge when two regions
// together hold fewer peers than one should.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Enabled:    false,
		Interval:   60,
		SplitAbove: 18,
		MergeBelow: 6,
		MaxRegions: 36,
		MinRegions: 4,
	}
}

// Validate checks the controller parameters.
func (c AdaptiveConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Interval <= 0 {
		return fmt.Errorf("node: adaptive interval must be positive, got %v", c.Interval)
	}
	if c.SplitAbove <= 0 || c.MergeBelow < 0 {
		return fmt.Errorf("node: invalid adaptive thresholds (split %d, merge %d)", c.SplitAbove, c.MergeBelow)
	}
	if c.MergeBelow >= c.SplitAbove {
		return fmt.Errorf("node: merge threshold %d must be below split threshold %d (hysteresis)", c.MergeBelow, c.SplitAbove)
	}
	if c.MinRegions < 2 || c.MaxRegions < c.MinRegions {
		return fmt.Errorf("node: invalid region bounds [%d, %d]", c.MinRegions, c.MaxRegions)
	}
	return nil
}

// AdaptiveStats counts controller actions.
type AdaptiveStats struct {
	Inspections uint64
	Splits      uint64
	Merges      uint64
}

// AdaptiveStats returns the controller counters.
func (n *Network) AdaptiveStats() AdaptiveStats { return n.adaptive }

// startAdaptiveController arms the periodic reshape check; each tick
// inspects first, then re-arms.
func (n *Network) startAdaptiveController() {
	n.sched.After(n.cfg.Adaptive.Interval, func() {
		n.inspectRegions()
		n.startAdaptiveController()
	})
}

// regionPopulation counts live peers per region of the latest table.
func (n *Network) regionPopulation() map[region.ID]int {
	pop := make(map[region.ID]int, n.table.Len())
	for _, r := range n.table.Regions() {
		pop[r.ID] = 0
	}
	for _, p := range n.peers {
		if !p.Alive() {
			continue
		}
		if r, ok := n.table.Locate(n.ch.Position(p.id)); ok {
			pop[r.ID]++
		}
	}
	return pop
}

// inspectRegions performs at most one reshape per inspection (splits take
// priority), keeping the partition change rate bounded.
func (n *Network) inspectRegions() {
	cfg := n.cfg.Adaptive
	n.adaptive.Inspections++
	pop := n.regionPopulation()

	// Split the most crowded region above the threshold.
	if n.table.Len() < cfg.MaxRegions {
		var worst region.ID = region.Invalid
		worstPop := cfg.SplitAbove
		// Scan in table order so population ties resolve to the lowest
		// region ID deterministically (map iteration order is random).
		for _, r := range n.table.Regions() {
			if c := pop[r.ID]; c > worstPop {
				worst, worstPop = r.ID, c
			}
		}
		if worst != region.Invalid {
			if err := n.Separate(worst); err == nil {
				n.adaptive.Splits++
				return
			}
		}
	}

	// Merge the sparsest mergeable pair below the threshold.
	if n.table.Len() > cfg.MinRegions {
		regions := n.table.Regions()
		bestA, bestB := region.Invalid, region.Invalid
		bestPop := cfg.MergeBelow
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				a, b := regions[i], regions[j]
				combined := pop[a.ID] + pop[b.ID]
				if combined >= bestPop || !mergeable(a, b) {
					continue
				}
				bestA, bestB, bestPop = a.ID, b.ID, combined
			}
		}
		if bestA != region.Invalid {
			if err := n.Merge(bestA, bestB); err == nil {
				n.adaptive.Merges++
			}
		}
	}
}

// mergeable reports whether two regions tile their union (the same test
// region.Table.Merge enforces), so the controller only proposes merges
// that will succeed.
func mergeable(a, b region.Region) bool {
	u := a.Bounds.Union(b.Bounds)
	return u.Area()-(a.Bounds.Area()+b.Bounds.Area()) <= 1e-6*u.Area()
}
