// Package xrand provides small, fast, deterministic pseudo-random number
// generators for reproducible simulation experiments.
//
// The package deliberately avoids math/rand's global state: every consumer
// owns an explicit *Rand seeded from a 64-bit seed, so that a simulation
// configuration (seed included) fully determines its outcome. The core
// generator is xoshiro256**, seeded through splitmix64 as recommended by its
// authors.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; give each goroutine its own Rand
// (see Split).
type Rand struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds produce
// well-separated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed restarts r as the stream New(seed) returns, in place.
func (r *Rand) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but keep the guard for clarity.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the high 64 bits of the 128-bit product.
	for {
		v := r.Uint64()
		hi, lo := mul128(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
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

// Geometric samples the geometric distribution on {0, 1, 2, ...} — the
// number of Bernoulli(p) failures before the first success — capped at a
// limit: a draw at or above the limit returns the limit. It is the building
// block for sparse fault sampling, where only draws below a line's width
// matter: the index of the next faulty cell is the current index plus a
// draw plus one. A draw is the inversion ⌊log u / log(1−p)⌋ of one Float64
// u (redrawn while it is 0), so it consumes the stream exactly as that
// formula does; but where u is safely below exp(limit·log(1−p)), the
// probability of reaching the limit, it skips the logarithm. At the sparse
// cell-failure rates of a low-voltage cache that is nearly every draw.
type Geometric struct {
	p, logq float64
	// skip is the no-fault threshold exp(limit·logq) lowered by a guard
	// band, so every u below it draws at least limit by the exact formula
	// too. The formula's rounding (log, the division, floor) and the
	// threshold's (the product, exp) move the boundary by far less than
	// geometricGuard: under 1e-13 relative wherever the threshold exceeds
	// the smallest nonzero Float64.
	skip  float64
	limit int
}

// geometricGuard is the relative width of the band below the no-fault
// threshold in which Geometric takes the exact formula.
const geometricGuard = 1e-9

// NewGeometric returns the sampler for success probability p capped at
// limit: p >= 1 always draws 0, p <= 0 always draws limit, and neither
// consumes the stream. It panics if limit < 1.
func NewGeometric(p float64, limit int) Geometric {
	if limit < 1 {
		panic("xrand: NewGeometric called with limit < 1")
	}
	g := Geometric{p: p, limit: limit}
	if !(p <= 0) && !(p >= 1) {
		g.logq = math.Log1p(-p)
		g.skip = math.Exp(float64(limit)*g.logq) * (1 - geometricGuard)
	}
	return g
}

// Draw returns the next sample, capped at the sampler's limit.
func (g *Geometric) Draw(r *Rand) int {
	switch {
	case g.p >= 1:
		return 0
	case g.p <= 0:
		return g.limit
	}
	u := r.Float64()
	// Avoid log(0).
	for u == 0 {
		u = r.Float64()
	}
	return g.fromUniform(u)
}

// fromUniform maps a uniform u in (0, 1) to its capped sample.
func (g *Geometric) fromUniform(u float64) int {
	if u < g.skip {
		return g.limit
	}
	x := math.Floor(math.Log(u) / g.logq)
	if x >= float64(g.limit) {
		return g.limit
	}
	return int(x)
}

// Poisson returns a sample from Poisson(mean) by Knuth's product method,
// which is exact and allocation-free in the small-mean regime of per-epoch
// transient-strike counts. For larger means it splits the draw into chunks
// (Poisson additivity) to keep the running product away from underflow.
// mean <= 0 returns 0.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 || math.IsNaN(mean) {
		return 0
	}
	count := 0
	for mean > 0 {
		chunk := mean
		if chunk > 500 {
			chunk = 500
		}
		mean -= chunk
		limit := math.Exp(-chunk)
		p := 1.0
		k := -1
		for {
			k++
			p *= r.Float64()
			if p <= limit {
				break
			}
		}
		count += k
	}
	return count
}

// Sample returns k distinct values drawn uniformly from [0, n) in no
// particular order. It panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample called with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
