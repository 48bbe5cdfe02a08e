package workload

import (
	"math/rand"
	"testing"
)

func testGen(t *testing.T, items int) *Generator {
	t.Helper()
	cat, err := NewCatalog(CatalogConfig{Items: items, MinSize: 100, MaxSize: 999})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(GeneratorConfig{Catalog: cat, ZipfTheta: 0.8, RequestInterval: 30})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDefaultSourceDelegates proves the adapter draws exactly what the
// bare generator draws: identical RNG seeds through either API must
// yield identical key sequences. This is the unit-level half of the
// default-path equivalence proof (the system-level half is
// TestWorkloadDefaultGolden at the repository root).
func TestDefaultSourceDelegates(t *testing.T) {
	gen := testGen(t, 200)
	src := DefaultSource{Gen: gen}
	a := rand.New(rand.NewSource(9))
	b := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		c := Ctx{Peer: i % 7, Now: float64(i), RNG: b}
		if gen.PickKey(a) != src.PickKey(c) {
			t.Fatal("request key diverged")
		}
		if gen.PickUpdateKey(a) != src.PickUpdateKey(c) {
			t.Fatal("update key diverged")
		}
	}
}

// hotShare draws n request keys at time now and returns the share that
// falls in hot.
func hotShare(src Source, hot map[Key]bool, now float64, loc Locator, n int) float64 {
	rng := rand.New(rand.NewSource(1))
	in := 0
	for i := 0; i < n; i++ {
		if hot[src.PickKey(Ctx{Now: now, RNG: rng, Loc: loc})] {
			in++
		}
	}
	return float64(in) / float64(n)
}

// TestFlashCrowdWindow: over a measured window [60, 360) the crowd
// ignites a third of the way in (t=160) and burns a quarter of it (75 s);
// max(1, 1000/100) = 10 cold keys absorb 60% of the requests meanwhile.
func TestFlashCrowdWindow(t *testing.T) {
	gen := testGen(t, 1000)
	f := NewFlashCrowd(gen, 60, 360, 3)
	if f.at != 160 || f.until != 235 {
		t.Fatalf("flash window [%v, %v), want [160, 235)", f.at, f.until)
	}
	hot := map[Key]bool{}
	for _, k := range f.hot {
		if int(k) < 500 {
			t.Errorf("hotset key %d is in the popular half of the catalog", k)
		}
		hot[k] = true
	}
	if len(hot) != 10 {
		t.Fatalf("hotset holds %d distinct keys, want 10", len(hot))
	}
	if share := hotShare(f, hot, 200, nil, 4000); share < 0.55 || share > 0.65 {
		t.Errorf("in-window hotset share %.3f, want ~0.6", share)
	}
	for _, now := range []float64{100, 235, 300} {
		if share := hotShare(f, hot, now, nil, 4000); share > 0.05 {
			t.Errorf("hotset share %.3f at t=%v, outside the window", share, now)
		}
	}
}

// TestDiurnalRotation: the ranking rotates once per measured window.
func TestDiurnalRotation(t *testing.T) {
	gen := testGen(t, 100)
	d := NewDiurnal(gen, 20, 120)
	if got := d.offset(0); got != 0 {
		t.Errorf("offset(0) = %d, want 0", got)
	}
	if got := d.offset(50); got != 50 {
		t.Errorf("offset(50) = %d, want 50", got)
	}
	if got := d.offset(150); got != 50 {
		t.Errorf("offset wraps: offset(150) = %d, want 50", got)
	}
	// At half period the most popular rank must land mid-catalog: with a
	// fresh deterministic stream, the same base draw shifts by exactly
	// the offset.
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	base := d.PickKey(Ctx{Now: 0, RNG: a})
	shifted := d.PickKey(Ctx{Now: 50, RNG: b})
	if want := Key((int(base) + 50) % 100); shifted != want {
		t.Errorf("shifted pick = %d, want %d", shifted, want)
	}
}

// TestHotspotCells: a 3 x 3 grid over the area, max(1, 200/50) = 4 keys
// per cell, absorbing half of the requests made there.
func TestHotspotCells(t *testing.T) {
	gen := testGen(t, 200)
	h := NewHotspot(gen, 900, 11)
	if len(h.cellHot) != 9 {
		t.Fatalf("%d cells, want 9", len(h.cellHot))
	}
	for cell, keys := range h.cellHot {
		if len(keys) != 4 {
			t.Errorf("cell %d favors %d keys, want 4", cell, len(keys))
		}
	}
	// Corner and out-of-bounds positions clamp into the grid.
	if c := h.cellOf(-10, -10); c != 0 {
		t.Errorf("negative position maps to cell %d, want 0", c)
	}
	if c := h.cellOf(1e9, 1e9); c != 8 {
		t.Errorf("far position maps to cell %d, want 8", c)
	}
	if c := h.cellOf(450, 450); c != 4 {
		t.Errorf("center maps to cell %d, want 4", c)
	}
	cellHot := map[Key]bool{}
	for _, k := range h.cellHot[4] {
		cellHot[k] = true
	}
	if share := hotShare(h, cellHot, 0, fixedLocator{x: 450, y: 450}, 4000); share < 0.45 || share > 0.6 {
		t.Errorf("center-cell hotset share %.3f, want ~0.5", share)
	}
}

type fixedLocator struct{ x, y float64 }

func (l fixedLocator) Locate(int) (float64, float64) { return l.x, l.y }

// TestRankChurnLazyAdvance proves the permutation at a given sim time
// is independent of how often the source was consulted: a source asked
// once at t=600 must hold the same permutation as one asked every
// second on the way there, given identical dedicated streams. Epochs are
// 60 s apart.
func TestRankChurnLazyAdvance(t *testing.T) {
	mk := func() *RankChurn {
		return NewRankChurn(testGen(t, 80), rand.New(rand.NewSource(99)))
	}
	eager, lazy := mk(), mk()
	if eager.swaps != 4 {
		t.Errorf("swaps = %d per epoch for 80 items, want 4", eager.swaps)
	}
	drng := rand.New(rand.NewSource(1))
	for now := 1.0; now <= 600; now++ {
		eager.PickKey(Ctx{Now: now, RNG: drng})
	}
	lazy.advance(600)
	if eager.epoch != lazy.epoch {
		t.Fatalf("epochs diverged: %d vs %d", eager.epoch, lazy.epoch)
	}
	for i := range eager.perm {
		if eager.perm[i] != lazy.perm[i] {
			t.Fatalf("permutations diverged at %d", i)
		}
	}
	if eager.epoch != 10 {
		t.Errorf("epoch = %d after t=600, want 10", eager.epoch)
	}
}
