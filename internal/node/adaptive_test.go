package node

import (
	"testing"

	"precinct/internal/radio"
)

func TestAdaptiveConfigValidate(t *testing.T) {
	if err := DefaultAdaptiveConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	enabled := DefaultAdaptiveConfig()
	enabled.Enabled = true
	if err := enabled.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*AdaptiveConfig){
		func(c *AdaptiveConfig) { c.Interval = 0 },
		func(c *AdaptiveConfig) { c.SplitAbove = 0 },
		func(c *AdaptiveConfig) { c.MergeBelow = -1 },
		func(c *AdaptiveConfig) { c.MergeBelow = c.SplitAbove },
		func(c *AdaptiveConfig) { c.MinRegions = 1 },
		func(c *AdaptiveConfig) { c.MaxRegions = 2; c.MinRegions = 4 },
	}
	for i, m := range bad {
		c := enabled
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad adaptive config %d accepted", i)
		}
	}
	// Disabled configs skip validation entirely.
	off := AdaptiveConfig{}
	if err := off.Validate(); err != nil {
		t.Error("disabled adaptive config rejected")
	}
}

func TestAdaptiveSplitsCrowdedRegion(t *testing.T) {
	// Uniform static grid, 36 peers over 4 big regions = 9 per region;
	// split threshold 8 forces splits.
	o := defaultHarnessOpts()
	o.rows, o.cols = 2, 2
	o.generator = true
	o.mutate = func(c *Config) {
		c.Adaptive = AdaptiveConfig{
			Enabled: true, Interval: 30,
			SplitAbove: 8, MergeBelow: 2,
			MinRegions: 2, MaxRegions: 16,
		}
	}
	h := build(t, o)
	h.net.Run(200)
	st := h.net.AdaptiveStats()
	if st.Inspections == 0 {
		t.Fatal("controller never ran")
	}
	if st.Splits == 0 {
		t.Fatal("crowded regions never split")
	}
	if h.net.Table().Len() <= 4 {
		t.Errorf("region count %d did not grow", h.net.Table().Len())
	}
	// The network keeps serving through the reshapes.
	rep := h.net.Report()
	if rep.Requests == 0 || float64(rep.Failures)/float64(rep.Requests) > 0.3 {
		t.Errorf("service degraded during splits: %+v", rep)
	}
}

func TestAdaptiveMergesSparseRegions(t *testing.T) {
	// 36 peers over a 6x6 grid = 1 per region; merge threshold 3 forces
	// merges.
	o := defaultHarnessOpts()
	o.rows, o.cols = 6, 6
	o.generator = true
	o.mutate = func(c *Config) {
		c.Adaptive = AdaptiveConfig{
			Enabled: true, Interval: 30,
			SplitAbove: 30, MergeBelow: 3,
			MinRegions: 4, MaxRegions: 40,
		}
	}
	h := build(t, o)
	h.net.Run(300)
	st := h.net.AdaptiveStats()
	if st.Merges == 0 {
		t.Fatal("sparse regions never merged")
	}
	if h.net.Table().Len() >= 36 {
		t.Errorf("region count %d did not shrink", h.net.Table().Len())
	}
	if got := h.net.Table().Len(); got < 4 {
		t.Errorf("region count %d fell below MinRegions", got)
	}
}

func TestAdaptiveRespectsBounds(t *testing.T) {
	o := defaultHarnessOpts()
	o.rows, o.cols = 2, 2
	o.generator = true
	o.mutate = func(c *Config) {
		c.Adaptive = AdaptiveConfig{
			Enabled: true, Interval: 20,
			SplitAbove: 2, MergeBelow: 1, // absurdly eager splitting
			MinRegions: 2, MaxRegions: 6,
		}
	}
	h := build(t, o)
	h.net.Run(300)
	if got := h.net.Table().Len(); got > 6 {
		t.Errorf("region count %d exceeded MaxRegions", got)
	}
}

func TestAdaptiveKeysFollowReshapes(t *testing.T) {
	o := defaultHarnessOpts()
	o.rows, o.cols = 2, 2
	o.generator = true
	o.mutate = func(c *Config) {
		c.Adaptive = AdaptiveConfig{
			Enabled: true, Interval: 25,
			SplitAbove: 8, MergeBelow: 2,
			MinRegions: 2, MaxRegions: 16,
		}
	}
	h := build(t, o)
	h.net.Run(300)
	if h.net.AdaptiveStats().Splits == 0 {
		t.Skip("no reshapes this trace")
	}
	// After reshapes settle, keys sit in their (new) proper regions.
	table := h.net.Table()
	misplaced, total := 0, 0
	for i := 0; i < h.net.Peers(); i++ {
		p := h.net.Peer(radio.NodeID(i))
		if p.TableVersion() != h.net.TableVersions()-1 {
			continue // missed the last flood; its keys may lag
		}
		for _, k := range p.Store().Keys() {
			it, _ := p.Store().Get(k)
			want, ok := table.ReplicaRegionAt(k, it.ReplicaRank)
			if !ok {
				continue
			}
			total++
			if want.ID != p.RegionID() {
				misplaced++
			}
		}
	}
	if total == 0 {
		t.Fatal("no keys to check")
	}
	if float64(misplaced) > 0.15*float64(total) {
		t.Errorf("%d/%d keys misplaced after adaptive reshapes", misplaced, total)
	}
}
