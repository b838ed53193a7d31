package matrix

import (
	"math"
	"slices"
)

// RNG is a small deterministic random number generator (splitmix64 core with
// a Box–Muller Gaussian transform). It is self-contained so experiment output
// is bit-reproducible across Go releases, unlike math/rand whose stream is
// only guaranteed per major version.
type RNG struct {
	state uint64
	// cached second Gaussian from Box–Muller
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("matrix: RNG.Intn non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate via Box–Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasGauss = true
	return radius * math.Cos(theta)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// SampleIdx draws the sorted row sample an error metric is measured on: want
// distinct indices of [0, n) from a permutation drawn with rng, or every row
// when want >= n (rng is then left untouched). Callers seed rng from their own
// stream, so each engine keeps grading itself on its historical rows.
func SampleIdx(rng *RNG, n, want int) []int {
	if want >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := rng.Perm(n)[:want]
	slices.Sort(idx)
	return idx
}

// DeriveSeed expands one base seed into an independent sub-seed for a named
// random stream and round. It is the single seed-derivation scheme shared by
// every engine (ssvd Ω draws, rsvd sketch rounds, error-sample index draws):
// the FNV-1a hash of (base, stream, round) — with an 0xFF separator after the
// stream so distinct (stream, round) pairs can never produce the same byte
// sequence — pushed through a splitmix64 finalizer so structured inputs
// (consecutive rounds, common prefixes) still land far apart in seed space.
// Ad-hoc "base + constant" offsets are banned: two offset streams are only
// one subtraction away from colliding, whereas distinct DeriveSeed streams
// are independent by construction.
func DeriveSeed(base uint64, stream string, round uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(base)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	mix(round)
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// NormRnd returns an r-by-c matrix of standard normal deviates, matching the
// paper's normrnd(r, c) pseudo-code helper.
func NormRnd(rng *RNG, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}
