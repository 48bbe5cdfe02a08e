package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(-5, 1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := NewZipf(10, -0.1); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NaN theta accepted")
	}
	z, err := NewZipf(10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if z.N() != 10 || z.Theta() != 0.8 {
		t.Errorf("accessors: N=%d theta=%v", z.N(), z.Theta())
	}
}

func TestZipfRankRange(t *testing.T) {
	z, _ := NewZipf(100, 0.8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		r := z.Rank(rng)
		if r < 1 || r > 100 {
			t.Fatalf("rank %d out of [1,100]", r)
		}
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z, _ := NewZipf(10, 0)
	for r := 1; r <= 10; r++ {
		if p := z.Prob(r); math.Abs(p-0.1) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want 0.1", r, p)
		}
	}
}

func TestZipfSkewFavorsLowRanks(t *testing.T) {
	z, _ := NewZipf(1000, 0.9)
	rng := rand.New(rand.NewSource(2))
	const draws = 100000
	var top10 int
	for i := 0; i < draws; i++ {
		if z.Rank(rng) <= 10 {
			top10++
		}
	}
	frac := float64(top10) / draws
	// With theta=0.9 over 1000 items the top-10 mass is ~36%; uniform
	// would be 1%. Accept a generous band.
	if frac < 0.25 {
		t.Errorf("top-10 fraction = %v, expected skew toward low ranks", frac)
	}
}

func TestZipfEmpiricalMatchesProb(t *testing.T) {
	z, _ := NewZipf(50, 0.7)
	rng := rand.New(rand.NewSource(3))
	const draws = 200000
	counts := make([]int, 51)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	for r := 1; r <= 50; r++ {
		got := float64(counts[r]) / draws
		want := z.Prob(r)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: empirical %v vs analytic %v", r, got, want)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	f := func(nRaw uint8, thetaRaw uint8) bool {
		n := int(nRaw%200) + 1
		theta := float64(thetaRaw) / 64 // 0..~4
		z, err := NewZipf(n, theta)
		if err != nil {
			return false
		}
		sum := 0.0
		for r := 1; r <= n; r++ {
			sum += z.Prob(r)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZipfProbMonotoneNonIncreasing(t *testing.T) {
	z, _ := NewZipf(100, 1.2)
	for r := 2; r <= 100; r++ {
		if z.Prob(r) > z.Prob(r-1)+1e-15 {
			t.Fatalf("Prob(%d)=%v > Prob(%d)=%v", r, z.Prob(r), r-1, z.Prob(r-1))
		}
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z, _ := NewZipf(10, 1)
	if z.Prob(0) != 0 || z.Prob(11) != 0 || z.Prob(-3) != 0 {
		t.Error("out-of-range rank should have zero probability")
	}
}

func TestPoissonValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewPoisson(bad); err == nil {
			t.Errorf("mean %v accepted", bad)
		}
	}
	p, err := NewPoisson(30)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mean() != 30 {
		t.Errorf("Mean = %v", p.Mean())
	}
}

func TestPoissonEmpiricalMean(t *testing.T) {
	p, _ := NewPoisson(30)
	rng := rand.New(rand.NewSource(4))
	const draws = 100000
	sum := 0.0
	for i := 0; i < draws; i++ {
		g := p.Next(rng)
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	mean := sum / draws
	if math.Abs(mean-30) > 0.5 {
		t.Errorf("empirical mean %v, want ~30", mean)
	}
}

func TestPoissonMemorylessVariance(t *testing.T) {
	// Exponential distribution: variance = mean^2.
	p, _ := NewPoisson(10)
	rng := rand.New(rand.NewSource(5))
	const draws = 200000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		g := p.Next(rng)
		sum += g
		sumsq += g * g
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(variance-100) > 5 {
		t.Errorf("variance = %v, want ~100", variance)
	}
}

func TestCatalogValidation(t *testing.T) {
	if _, err := NewCatalog(CatalogConfig{Items: 0, MinSize: 1, MaxSize: 2}); err == nil {
		t.Error("0 items accepted")
	}
	if _, err := NewCatalog(CatalogConfig{Items: 5, MinSize: 0, MaxSize: 2}); err == nil {
		t.Error("MinSize 0 accepted")
	}
	if _, err := NewCatalog(CatalogConfig{Items: 5, MinSize: 10, MaxSize: 5}); err == nil {
		t.Error("Max < Min accepted")
	}
}

func TestCatalogSizesInRange(t *testing.T) {
	cfg := CatalogConfig{Items: 500, MinSize: 100, MaxSize: 1000}
	c, err := NewCatalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 500 {
		t.Fatalf("Len = %d", c.Len())
	}
	var total int64
	for _, k := range c.Keys() {
		it, ok := c.Item(k)
		if !ok {
			t.Fatalf("missing item %d", k)
		}
		if it.Size < 100 || it.Size > 1000 {
			t.Fatalf("item %d size %d out of range", k, it.Size)
		}
		total += int64(it.Size)
	}
	if total != c.TotalSize() {
		t.Errorf("TotalSize = %d, want %d", c.TotalSize(), total)
	}
}

func TestCatalogDeterministic(t *testing.T) {
	cfg := DefaultCatalogConfig()
	a, _ := NewCatalog(cfg)
	b, _ := NewCatalog(cfg)
	for _, k := range a.Keys() {
		if a.Size(k) != b.Size(k) {
			t.Fatalf("catalogs differ at key %d", k)
		}
	}
}

func TestCatalogMissingKey(t *testing.T) {
	c, _ := NewCatalog(CatalogConfig{Items: 10, MinSize: 1, MaxSize: 1})
	if _, ok := c.Item(Key(10)); ok {
		t.Error("Item beyond range returned ok")
	}
	if c.Size(Key(99)) != 0 {
		t.Error("Size beyond range should be 0")
	}
}

func TestCatalogSizeSpread(t *testing.T) {
	c, _ := NewCatalog(CatalogConfig{Items: 1000, MinSize: 1000, MaxSize: 10000})
	distinct := make(map[int]bool)
	for _, k := range c.Keys() {
		distinct[c.Size(k)] = true
	}
	if len(distinct) < 100 {
		t.Errorf("only %d distinct sizes over 1000 items; hash spread too weak", len(distinct))
	}
}

func TestKeyHashStable(t *testing.T) {
	if KeyHash(42) != KeyHash(42) {
		t.Error("KeyHash not deterministic")
	}
	if KeyHash(1) == KeyHash(2) {
		t.Error("trivial collision between adjacent keys")
	}
}

func newTestGenerator(t *testing.T, theta float64) *Generator {
	t.Helper()
	c, err := NewCatalog(CatalogConfig{Items: 100, MinSize: 512, MaxSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(GeneratorConfig{Catalog: c, ZipfTheta: theta, RequestInterval: 30})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{RequestInterval: 30}); err == nil {
		t.Error("nil catalog accepted")
	}
	c, _ := NewCatalog(DefaultCatalogConfig())
	if _, err := NewGenerator(GeneratorConfig{Catalog: c, ZipfTheta: -1, RequestInterval: 30}); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Catalog: c, UpdateZipfTheta: -1, RequestInterval: 30}); err == nil {
		t.Error("negative update theta accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Catalog: c, ZipfTheta: 0.8}); err == nil {
		t.Error("zero request interval accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Catalog: c, ZipfTheta: 0.8, RequestInterval: 30, UpdateInterval: -5}); err == nil {
		t.Error("negative update interval accepted")
	}
	g, err := NewGenerator(GeneratorConfig{Catalog: c, ZipfTheta: 0.8, RequestInterval: 30, UpdateInterval: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Arrivals().UpdatesEnabled() {
		t.Error("update interval lost: the generator's arrivals have updates disabled")
	}
}

func TestArrivalsValidation(t *testing.T) {
	for _, c := range []struct{ req, upd float64 }{
		{0, 0}, {-1, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
		{30, -5}, {30, math.NaN()}, {30, math.Inf(1)},
	} {
		if _, err := NewArrivals(c.req, c.upd); err == nil {
			t.Errorf("request %v / update %v accepted", c.req, c.upd)
		}
	}
}

func TestArrivalsUpdatesToggle(t *testing.T) {
	a, err := NewArrivals(30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.UpdatesEnabled() {
		t.Error("updates should be disabled")
	}
	defer func() {
		if recover() == nil {
			t.Error("NextUpdateGap with updates disabled did not panic")
		}
	}()
	a.NextUpdateGap(rand.New(rand.NewSource(1)))
}

func TestGeneratorPickKeyDistribution(t *testing.T) {
	g := newTestGenerator(t, 0.9)
	rng := rand.New(rand.NewSource(6))
	counts := make(map[Key]int)
	for i := 0; i < 50000; i++ {
		k := g.PickKey(rng)
		if int(k) >= g.Catalog().Len() {
			t.Fatalf("key %d out of catalog", k)
		}
		counts[k]++
	}
	if counts[Key(0)] <= counts[Key(50)] {
		t.Errorf("key 0 (%d draws) should dominate key 50 (%d draws)", counts[Key(0)], counts[Key(50)])
	}
}

// TestArrivalsDrawExponentialGaps: each gap is one ExpFloat64 draw from
// the peer's stream scaled by the mean, the draw every recorded run
// depends on.
func TestArrivalsDrawExponentialGaps(t *testing.T) {
	a, err := NewArrivals(30, 60)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ref := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if got, want := a.NextRequestGap(rng), ref.ExpFloat64()*30; got != want || got < 0 {
			t.Fatalf("request gap %v, want %v", got, want)
		}
		if got, want := a.NextUpdateGap(rng), ref.ExpFloat64()*60; got != want || got < 0 {
			t.Fatalf("update gap %v, want %v", got, want)
		}
	}
}
