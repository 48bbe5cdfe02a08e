package workload

import (
	"math"
	"math/rand"
)

// Non-stationary sources. Each wraps the stationary Generator for its
// base popularity and perturbs the key choice in a way the paper's GD-LD
// utility and TTR consistency were never tuned for: a sudden flash-crowd
// hotset, smooth diurnal rank rotation, geo-correlated per-region
// popularity, and the popularity-rank churn of Wang et al. (DTN
// cooperative caching, PAPERS.md). All randomness flows through Ctx.RNG
// or a stream registered at build time, so every source replays
// deterministically.

// The sources' parameters. A scenario names a source and gets these,
// scaled to its catalog size n and its measured window [warmup, end):
//
//	flash-crowd  ignites at warmup + (end-warmup)/3 and burns (end-warmup)/4;
//	             max(1, n/100) cold keys absorb 60% of requests meanwhile
//	diurnal      the ranking rotates once per end-warmup seconds
//	hotspot      3 x 3 cells over the area, each favoring max(1, n/50)
//	             keys that absorb 50% of its peers' requests
//	rank-churn   max(1, n/20) rank transpositions every 60 s
const (
	flashBoost       = 0.6
	flashHotsetPer   = 100
	hotspotGrid      = 3
	hotspotBoost     = 0.5
	hotspotHotsetPer = 50
	churnEvery       = 60.0
	churnSwapsPer    = 20
)

// FlashCrowd turns a deterministic hotset of previously cold keys
// suddenly popular for a bounded window, then reverts.
type FlashCrowd struct {
	gen   *Generator
	at    float64
	until float64
	hot   []Key
}

// NewFlashCrowd builds the flash crowd of a run whose measured window is
// [warmup, end). The hotset is drawn from the cold half of the catalog,
// where the paper's popularity priors are most wrong; seed derives its
// membership without consuming any RNG stream.
func NewFlashCrowd(gen *Generator, warmup, end float64, seed int64) *FlashCrowd {
	measured := end - warmup
	at := warmup + measured/3
	f := &FlashCrowd{gen: gen, at: at, until: at + measured/4}
	n := gen.Catalog().Len()
	coldStart := n / 2
	coldSpan := n - coldStart
	hotset := max(1, n/flashHotsetPer)
	seen := make(map[Key]bool, hotset)
	for j := uint64(0); len(f.hot) < hotset; j++ {
		k := Key(coldStart + int(splitmix64(uint64(seed)+j)%uint64(coldSpan)))
		if !seen[k] {
			seen[k] = true
			f.hot = append(f.hot, k)
		}
	}
	return f
}

// PickKey draws from the hotset with probability flashBoost inside the
// flash window, from the base distribution otherwise.
func (f *FlashCrowd) PickKey(c Ctx) Key {
	if c.Now >= f.at && c.Now < f.until && c.RNG.Float64() < flashBoost {
		return f.hot[c.RNG.Intn(len(f.hot))]
	}
	return f.gen.PickKey(c.RNG)
}

// PickUpdateKey draws from the base update-key distribution: the flash
// is read traffic, writes keep their stationary mix.
func (f *FlashCrowd) PickUpdateKey(c Ctx) Key { return f.gen.PickUpdateKey(c.RNG) }

// Diurnal rotates the Zipf ranking smoothly through the catalog: the
// key at rank r now is the key at rank r+1 a fraction of a period
// later, modeling time-of-day popularity drift. Updates rotate with
// requests, so write pressure tracks the moving hotset.
type Diurnal struct {
	gen    *Generator
	period float64
}

// NewDiurnal builds the drift of a run whose measured window is
// [warmup, end): one full rotation per measured window.
func NewDiurnal(gen *Generator, warmup, end float64) *Diurnal {
	return &Diurnal{gen: gen, period: end - warmup}
}

// offset returns the current rank rotation in catalog positions.
func (d *Diurnal) offset(now float64) int {
	n := d.gen.Catalog().Len()
	frac := math.Mod(now, d.period) / d.period
	if frac < 0 {
		frac += 1
	}
	return int(math.Floor(frac*float64(n))) % n
}

// PickKey draws a base key and rotates it by the clock's offset.
func (d *Diurnal) PickKey(c Ctx) Key {
	n := d.gen.Catalog().Len()
	return Key((int(d.gen.PickKey(c.RNG)) + d.offset(c.Now)) % n)
}

// PickUpdateKey draws a base update key and rotates it identically.
func (d *Diurnal) PickUpdateKey(c Ctx) Key {
	n := d.gen.Catalog().Len()
	return Key((int(d.gen.PickUpdateKey(c.RNG)) + d.offset(c.Now)) % n)
}

// Hotspot gives each geographic cell its own favored hotset: a peer's
// requests skew toward keys popular where the peer currently is. This
// is the one source that consults Ctx.Loc — peers moving between cells
// drag the popularity field with them.
type Hotspot struct {
	gen     *Generator
	area    float64
	cellHot [][]Key // per cell (row-major), the favored keys
}

// NewHotspot partitions the square of side areaSide meters into
// hotspotGrid x hotspotGrid popularity cells, independent of the
// protocol's region grid so hotspots straddle region boundaries; seed
// derives each cell's hotset.
func NewHotspot(gen *Generator, areaSide float64, seed int64) *Hotspot {
	n := gen.Catalog().Len()
	hotset := max(1, n/hotspotHotsetPer)
	h := &Hotspot{gen: gen, area: areaSide, cellHot: make([][]Key, hotspotGrid*hotspotGrid)}
	for cell := range h.cellHot {
		keys := make([]Key, 0, hotset)
		seen := make(map[Key]bool, hotset)
		for j := uint64(0); len(keys) < hotset; j++ {
			k := Key(splitmix64(uint64(seed)^uint64(cell)<<32^j) % uint64(n))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		h.cellHot[cell] = keys
	}
	return h
}

// cellOf maps a position to its popularity cell.
func (h *Hotspot) cellOf(x, y float64) int {
	cx := int(x / h.area * hotspotGrid)
	cy := int(y / h.area * hotspotGrid)
	cx = min(max(cx, 0), hotspotGrid-1)
	cy = min(max(cy, 0), hotspotGrid-1)
	return cy*hotspotGrid + cx
}

// PickKey draws from the requester's cell hotset with probability
// hotspotBoost, from the base distribution otherwise.
func (h *Hotspot) PickKey(c Ctx) Key {
	if c.RNG.Float64() < hotspotBoost {
		hot := h.cellHot[h.cellOf(c.Loc.Locate(c.Peer))]
		return hot[c.RNG.Intn(len(hot))]
	}
	return h.gen.PickKey(c.RNG)
}

// PickUpdateKey draws from the base update-key distribution.
func (h *Hotspot) PickUpdateKey(c Ctx) Key { return h.gen.PickUpdateKey(c.RNG) }

// RankChurn perturbs the rank-to-key permutation with random
// transpositions every epoch — the popularity-ranking dynamics of
// Wang et al. Keys keep their sizes and home regions; what moves is
// which keys are popular, exactly the signal GD-LD's utility tracks.
type RankChurn struct {
	gen   *Generator
	swaps int
	rng   *rand.Rand
	epoch int64
	perm  []uint32 // rank index (0-based) -> catalog key index
}

// NewRankChurn builds the churn; rng is the dedicated stream the
// reshuffles draw from.
func NewRankChurn(gen *Generator, rng *rand.Rand) *RankChurn {
	n := gen.Catalog().Len()
	r := &RankChurn{gen: gen, swaps: max(1, n/churnSwapsPer), rng: rng, perm: make([]uint32, n)}
	for i := range r.perm {
		r.perm[i] = uint32(i)
	}
	return r
}

// advance applies every reshuffle epoch the clock has crossed. Draws
// happen lazily but in epoch order, so the permutation at any sim time
// is independent of how often the source was consulted before it.
func (r *RankChurn) advance(now float64) {
	target := int64(math.Floor(now / churnEvery))
	for r.epoch < target {
		r.epoch++
		for i := 0; i < r.swaps; i++ {
			a := r.rng.Intn(len(r.perm))
			b := r.rng.Intn(len(r.perm))
			r.perm[a], r.perm[b] = r.perm[b], r.perm[a]
		}
	}
}

// PickKey draws a Zipf rank and maps it through the churned permutation.
func (r *RankChurn) PickKey(c Ctx) Key {
	r.advance(c.Now)
	return Key(r.perm[int(r.gen.PickKey(c.RNG))])
}

// PickUpdateKey draws an update rank through the same permutation.
func (r *RankChurn) PickUpdateKey(c Ctx) Key {
	r.advance(c.Now)
	return Key(r.perm[int(r.gen.PickUpdateKey(c.RNG))])
}
