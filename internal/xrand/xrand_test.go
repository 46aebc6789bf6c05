package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 1000 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	child := r.Split()
	// Parent and child must not mirror each other.
	same := 0
	for i := 0; i < 1000; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream mirrors parent (%d collisions)", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 16, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.uint64n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(21)
	const p, n = 0.137, 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.005 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestGeometricEdges(t *testing.T) {
	r := New(2)
	before := *r
	for _, c := range []struct {
		p     float64
		limit int
		want  int
	}{{1, 512, 0}, {2, 7, 0}, {0, 512, 512}, {-1, 3, 3}} {
		g := NewGeometric(c.p, c.limit)
		if got := g.Draw(r); got != c.want {
			t.Fatalf("NewGeometric(%v, %d).Draw = %d, want %d", c.p, c.limit, got, c.want)
		}
	}
	if *r != before {
		t.Fatal("a degenerate sampler consumed the stream")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGeometric with limit 0 did not panic")
		}
	}()
	NewGeometric(0.5, 0)
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	const p, n = 0.2, 100000
	g := NewGeometric(p, math.MaxInt/2)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(g.Draw(r))
	}
	mean := sum / n
	want := (1 - p) / p // mean of geometric on {0,1,...}
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

// geometricFormula is the uncapped inversion sampler Geometric replaced,
// kept as its oracle.
func geometricFormula(r *Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return formulaFromUniform(u, p)
}

func formulaFromUniform(u, p float64) int {
	g := math.Floor(math.Log(u) / math.Log1p(-p))
	if g > float64(math.MaxInt/2) {
		return math.MaxInt / 2
	}
	return int(g)
}

// geometricProbes are success probabilities from 1e-12 to 1−1e-6, and
// caps from 1 to 4096.
var (
	geometricPs     = []float64{1e-12, 1e-10, 3e-9, 1e-8, 1e-7, 1e-6, 8e-5, 1e-4, 1.2e-3, 0.01, 0.03, 0.2, 0.5, 0.9, 0.999, 1 - 1e-6}
	geometricLimits = []int{1, 2, 3, 7, 64, 511, 512, 1000, 4096}
)

// TestGeometricMatchesFormula pins the capped sampler to the uncapped
// formula: equal draws below the cap, the cap at or above it, and the same
// stream consumed, draw by draw.
func TestGeometricMatchesFormula(t *testing.T) {
	for _, p := range geometricPs {
		for _, limit := range geometricLimits {
			g := NewGeometric(p, limit)
			ra, rb := New(uint64(limit)^math.Float64bits(p)), New(uint64(limit)^math.Float64bits(p))
			for i := 0; i < 3000; i++ {
				want := min(geometricFormula(ra, p), limit)
				if got := g.Draw(rb); got != want {
					t.Fatalf("p=%v limit=%d draw %d: %d, formula gives %d", p, limit, i, got, want)
				}
				if *ra != *rb {
					t.Fatalf("p=%v limit=%d draw %d: stream consumption differs", p, limit, i)
				}
			}
		}
	}
}

// TestGeometricThresholdProbes checks uniforms at and around the no-fault
// threshold exp(limit·log(1−p)) and the sampler's lowered skip point, ulp
// by ulp, where a guard band too narrow would skip a draw the formula puts
// below the cap.
func TestGeometricThresholdProbes(t *testing.T) {
	for _, p := range geometricPs {
		for _, limit := range geometricLimits {
			g := NewGeometric(p, limit)
			threshold := math.Exp(float64(limit) * math.Log1p(-p))
			if threshold > 0 && !(g.skip < threshold) {
				t.Fatalf("p=%v limit=%d: skip point %v not below the threshold %v", p, limit, g.skip, threshold)
			}
			for _, center := range []float64{threshold, g.skip, threshold * (1 - geometricGuard/2)} {
				u := center
				for k := 0; k < 64; k++ {
					u = math.Nextafter(u, 0)
				}
				for k := 0; k < 129; k++ {
					if u > 0 && u < 1 {
						want := min(formulaFromUniform(u, p), limit)
						if got := g.fromUniform(u); got != want {
							t.Fatalf("p=%v limit=%d u=%v: %d, formula gives %d", p, limit, u, got, want)
						}
					}
					u = math.Nextafter(u, 1)
				}
			}
		}
	}
}

func TestBinomialMatchesMean(t *testing.T) {
	r := New(17)
	const n, p, trials = 523, 0.004, 20000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Binomial(n, p)
	}
	mean := float64(sum) / trials
	want := float64(n) * p
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Binomial mean = %v, want ~%v", mean, want)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(1)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0, .5) = %d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10, 0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10, 1) = %d", v)
	}
}

func TestBinomialRange(t *testing.T) {
	f := func(seed uint64) bool {
		rr := New(seed)
		v := rr.Binomial(523, 0.01)
		return v >= 0 && v <= 523
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(8)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(50)
		k := r.Intn(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample(%d,%d) returned %d values", n, k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Sample(%d,%d) = %v invalid", n, k, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleFull(t *testing.T) {
	s := New(3).Sample(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Sample(10,10) missing %d", i)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestPoisson pins the sampler's mean/variance against theory at a few
// means spanning the strike-count regime, plus the edge cases.
func TestPoisson(t *testing.T) {
	r := New(77)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 || r.Poisson(math.NaN()) != 0 {
		t.Fatal("Poisson of non-positive or NaN mean must be 0")
	}
	for _, mean := range []float64{0.01, 0.5, 3, 40, 1200} {
		const n = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(mean))
			sum += x
			sumSq += x * x
		}
		m := sum / n
		v := sumSq/n - m*m
		// Mean and variance are both `mean`; 5-sigma tolerance on the mean.
		tol := 5 * math.Sqrt(mean/n)
		if math.Abs(m-mean) > tol+1e-9 {
			t.Errorf("Poisson(%g): sample mean %g, want within %g", mean, m, tol)
		}
		if mean >= 0.5 && (v < mean*0.8 || v > mean*1.2) {
			t.Errorf("Poisson(%g): sample variance %g, want ~%g", mean, v, mean)
		}
	}
}

// FuzzGeometricMatchesFormula drives the capped sampler and the formula
// from one seed over arbitrary probabilities and caps: equal draws below
// the cap, the cap at or above it, and the same stream consumed.
func FuzzGeometricMatchesFormula(f *testing.F) {
	f.Add(uint64(1), 8e-5, 512)
	f.Add(uint64(2), 1e-12, 4096)
	f.Add(uint64(3), 0.5, 1)
	f.Fuzz(func(t *testing.T, seed uint64, p float64, limit int) {
		if !(p >= 1e-300 && p <= 1) || limit < 1 || limit > 1<<20 {
			return
		}
		g := NewGeometric(p, limit)
		ra, rb := New(seed), New(seed)
		for i := 0; i < 64; i++ {
			want := min(geometricFormula(ra, p), limit)
			if got := g.Draw(rb); got != want {
				t.Fatalf("p=%v limit=%d draw %d: %d, formula gives %d", p, limit, i, got, want)
			}
			if *ra != *rb {
				t.Fatalf("p=%v limit=%d draw %d: stream consumption differs", p, limit, i)
			}
		}
	})
}

// Binomial returns a sample from Binomial(n, p) by skipping from one
// success to the next with the geometric sampler the fault maps use; the
// Binomial tests pin that sampler's skip distribution through it.
func (r *Rand) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	count := 0
	// Skip from one success to the next.
	g := NewGeometric(p, n)
	for i := g.Draw(r); i < n; i += g.Draw(r) + 1 {
		count++
	}
	return count
}

// Bernoulli returns true with probability p. Values of p outside [0,1]
// are clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Split returns a new generator whose stream is independent of r's
// continued use. It is the supported way to derive per-component
// generators from a master seed.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}
