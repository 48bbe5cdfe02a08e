package workload

import (
	"math/rand"
	"testing"
)

func testGen(t *testing.T, items int, updates float64) *Generator {
	t.Helper()
	cat, err := NewCatalog(CatalogConfig{Items: items, MinSize: 100, MaxSize: 999})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(GeneratorConfig{
		Catalog: cat, ZipfTheta: 0.8, RequestInterval: 30, UpdateInterval: updates,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDefaultSourceDelegates proves the adapter draws exactly what the
// bare generator draws: identical RNG seeds through either API must
// yield identical gap and key sequences. This is the unit-level half of
// the default-path equivalence proof (the system-level half is
// TestWorkloadDefaultGolden at the repository root).
func TestDefaultSourceDelegates(t *testing.T) {
	gen := testGen(t, 200, 45)
	src := DefaultSource{Gen: gen}
	a := rand.New(rand.NewSource(9))
	b := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		c := Ctx{Peer: i % 7, Now: float64(i), RNG: b}
		if gen.NextRequestGap(a) != src.NextRequestGap(c) {
			t.Fatal("request gap diverged")
		}
		if gen.PickKey(a) != src.PickKey(c) {
			t.Fatal("request key diverged")
		}
		if gen.NextUpdateGap(a) != src.NextUpdateGap(c) {
			t.Fatal("update gap diverged")
		}
		if gen.PickUpdateKey(a) != src.PickUpdateKey(c) {
			t.Fatal("update key diverged")
		}
	}
	if !src.UpdatesEnabled() {
		t.Error("updates lost in adaptation")
	}
}

func TestFlashCrowdWindow(t *testing.T) {
	gen := testGen(t, 200, 0)
	f, err := NewFlashCrowd(FlashCrowdConfig{
		Gen: gen, At: 100, Duration: 50, Hotset: 5, Boost: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := map[Key]bool{}
	for _, k := range f.hot {
		if int(k) < 100 {
			t.Errorf("hotset key %d is in the popular half of the catalog", k)
		}
		hot[k] = true
	}
	if len(hot) != 5 {
		t.Fatalf("hotset holds %d distinct keys, want 5", len(hot))
	}
	rng := rand.New(rand.NewSource(1))
	// Boost 1: every in-window pick is a hotset key.
	for i := 0; i < 100; i++ {
		if k := f.PickKey(Ctx{Now: 120, RNG: rng}); !hot[k] {
			t.Fatalf("in-window pick %d outside the hotset", k)
		}
	}
	// Outside the window the hotset share must fall back to ~base: with
	// 5 cold keys out of 200 it cannot dominate 200 draws.
	outside := 0
	for i := 0; i < 200; i++ {
		if hot[f.PickKey(Ctx{Now: 400, RNG: rng})] {
			outside++
		}
	}
	if outside > 50 {
		t.Errorf("hotset drew %d/200 outside the window", outside)
	}
}

func TestDiurnalRotation(t *testing.T) {
	gen := testGen(t, 100, 20)
	d, err := NewDiurnal(DiurnalConfig{Gen: gen, Period: 100})
	if err != nil {
		t.Fatal(err)
	}
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

func TestHotspotCells(t *testing.T) {
	gen := testGen(t, 100, 0)
	h, err := NewHotspot(HotspotConfig{
		Gen: gen, AreaSide: 900, Grid: 3, Hotset: 4, Boost: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Corner and out-of-bounds positions clamp into the grid.
	if c := h.cellOf(-10, -10); c != 0 {
		t.Errorf("negative position maps to cell %d, want 0", c)
	}
	if c := h.cellOf(1e9, 1e9); c != 8 {
		t.Errorf("far position maps to cell %d, want 8", c)
	}
	// Boost 1 with a locator: picks come from the peer's cell hotset.
	loc := fixedLocator{x: 450, y: 450} // center cell 4
	cellHot := map[Key]bool{}
	for _, k := range h.cellHot[4] {
		cellHot[k] = true
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		if k := h.PickKey(Ctx{Peer: 0, RNG: rng, Loc: loc}); !cellHot[k] {
			t.Fatalf("pick %d outside the cell hotset", k)
		}
	}
	// Without a locator the fallback hotset serves.
	if k := h.PickKey(Ctx{Peer: 0, RNG: rng}); k >= Key(gen.Catalog().Len()) {
		t.Fatalf("fallback pick %d outside the catalog", k)
	}
}

type fixedLocator struct{ x, y float64 }

func (l fixedLocator) Locate(int) (float64, float64) { return l.x, l.y }

// TestRankChurnLazyAdvance proves the permutation at a given sim time
// is independent of how often the source was consulted: a source asked
// once at t=100 must hold the same permutation as one asked every
// second on the way there, given identical dedicated streams.
func TestRankChurnLazyAdvance(t *testing.T) {
	mk := func() *RankChurn {
		gen := testGen(t, 80, 0)
		r, err := NewRankChurn(RankChurnConfig{
			Gen: gen, Every: 10, Swaps: 7, RNG: rand.New(rand.NewSource(99)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	eager, lazy := mk(), mk()
	drng := rand.New(rand.NewSource(1))
	for now := 1.0; now <= 100; now++ {
		eager.PickKey(Ctx{Now: now, RNG: drng})
	}
	lazy.advance(100)
	if eager.epoch != lazy.epoch {
		t.Fatalf("epochs diverged: %d vs %d", eager.epoch, lazy.epoch)
	}
	for i := range eager.perm {
		if eager.perm[i] != lazy.perm[i] {
			t.Fatalf("permutations diverged at %d", i)
		}
	}
	if eager.epoch != 10 {
		t.Errorf("epoch = %d after t=100 with Every=10, want 10", eager.epoch)
	}
}

func TestSourceConstructorValidation(t *testing.T) {
	gen := testGen(t, 50, 0)
	if _, err := NewFlashCrowd(FlashCrowdConfig{Gen: gen, At: 10, Duration: 0, Hotset: 1, Boost: 0.5}); err == nil {
		t.Error("zero flash duration accepted")
	}
	if _, err := NewFlashCrowd(FlashCrowdConfig{Gen: gen, At: 10, Duration: 5, Hotset: 1, Boost: 1.5}); err == nil {
		t.Error("boost > 1 accepted")
	}
	if _, err := NewDiurnal(DiurnalConfig{Gen: gen, Period: -1}); err == nil {
		t.Error("negative drift period accepted")
	}
	if _, err := NewHotspot(HotspotConfig{Gen: gen, AreaSide: 100, Grid: 0, Hotset: 1, Boost: 0.5}); err == nil {
		t.Error("zero hotspot grid accepted")
	}
	// A grid of a million cells a side exhausted memory building its
	// hotsets, and at 3037000500 Grid*Grid overflowed int into a
	// negative slice length.
	for _, grid := range []int{1000000, 3037000500} {
		if _, err := NewHotspot(HotspotConfig{Gen: gen, AreaSide: 100, Grid: grid, Hotset: 1, Boost: 0.5}); err == nil {
			t.Errorf("hotspot grid %d accepted", grid)
		}
	}
	if _, err := NewRankChurn(RankChurnConfig{Gen: gen, Every: 10, Swaps: 1}); err == nil {
		t.Error("missing churn stream accepted")
	}
	if _, err := NewRankChurn(RankChurnConfig{Gen: gen, Every: 0, Swaps: 1, RNG: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("zero churn interval accepted")
	}
}
