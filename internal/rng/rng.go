// Package rng provides small, fast, deterministic random number generators
// used throughout the library.
//
// Reproducibility is a first-class requirement: every experiment in the paper
// is a Monte-Carlo estimate, and regression tests must be able to pin exact
// outputs. The package therefore exposes explicit-state generators rather
// than the global math/rand source, and supports cheap splitting so that
// parallel workers (one per sampled possible world, one per node, ...) each
// get an independent stream derived from a single master seed.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny mixing generator, used for seeding and splitting.
//   - PCG32: the PCG-XSH-RR 64/32 generator, used for all sampling. It has a
//     2^64 period per stream and 2^63 independent streams, more than enough
//     for the workloads here, and is several times faster than math/rand's
//     default source for the Float64/Intn mix these algorithms need.
package rng

import "math/bits"

// SplitMix64 is the mixing generator from Steele, Lea & Flood (OOPSLA 2014).
// Its zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a high-quality 64-bit
// hash used to derive child seeds from (seed, index) pairs without any
// visible correlation between the children.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// PCG32 implements the PCG-XSH-RR 64/32 generator (O'Neill 2014).
type PCG32 struct {
	state uint64
	inc   uint64 // always odd
}

// New returns a PCG32 seeded deterministically from seed, using stream 0.
func New(seed uint64) *PCG32 {
	return NewStream(seed, 0)
}

// NewStream returns a PCG32 on an independent stream. Generators created
// with the same seed but different stream values produce uncorrelated
// sequences; this is how parallel workers obtain private generators.
func NewStream(seed, stream uint64) *PCG32 {
	p := new(PCG32)
	p.seed(seed, stream)
	return p
}

// seed puts p at the start of stream `stream` under seed. Keeping it (and
// splitFrom) out of line leaves NewStream and Split small enough to inline,
// so a generator that does not outlive its caller stays off the heap.
func (p *PCG32) seed(seed, stream uint64) {
	p.inc = Mix64(stream)<<1 | 1
	p.state = 0
	p.next()
	p.state += Mix64(seed)
	p.next()
}

// Split derives a child generator from the parent's seed material and an
// index. Calling Split(i) for distinct i yields independent generators, and
// does not advance the parent, so the assignment of streams to work items is
// stable regardless of scheduling order.
func (p *PCG32) Split(i uint64) *PCG32 {
	q := new(PCG32)
	q.splitFrom(p, i)
	return q
}

// splitFrom seeds q as p's i-th child (see Split).
func (q *PCG32) splitFrom(p *PCG32, i uint64) {
	q.seed(Mix64(p.state^Mix64(i)), p.inc>>1^i)
}

func (p *PCG32) next() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint32 returns a uniformly distributed 32-bit value.
func (p *PCG32) Uint32() uint32 { return p.next() }

// Uint64 returns a uniformly distributed 64-bit value.
func (p *PCG32) Uint64() uint64 {
	return uint64(p.next())<<32 | uint64(p.next())
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (p *PCG32) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability prob. Probabilities outside [0,1]
// are clamped: prob <= 0 is always false, prob >= 1 always true.
func (p *PCG32) Bernoulli(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return p.Float64() < prob
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded rejection method.
func (p *PCG32) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	if n <= 1<<31 {
		return int(p.uint32n(uint32(n)))
	}
	// Rare large-range case: rejection sample on 64 bits.
	bound := uint64(n)
	mask := ^uint64(0)
	if b := bits.Len64(bound - 1); b < 64 {
		mask = 1<<uint(b) - 1
	}
	for {
		v := p.Uint64() & mask
		if v < bound {
			return int(v)
		}
	}
}

// uint32n returns a uniform value in [0, n) for n > 0.
func (p *PCG32) uint32n(n uint32) uint32 {
	// Lemire's multiply-shift with rejection of the biased region.
	x := p.next()
	m := uint64(x) * uint64(n)
	l := uint32(m)
	if l < n {
		thresh := -n % n
		for l < thresh {
			x = p.next()
			m = uint64(x) * uint64(n)
			l = uint32(m)
		}
	}
	return uint32(m >> 32)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (p *PCG32) Perm(n int) []int {
	out := make([]int, n)
	for i := 1; i < n; i++ {
		j := p.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
	return out
}

// Shuffle pseudo-randomizes the order of the first n elements using swap.
func (p *PCG32) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with rate 1, derived by
// inversion. Useful for skipping geometric gaps when sampling sparse edges.
func (p *PCG32) Exp() float64 {
	// -log(1-u) with u in [0,1); guard u == 0 exactly.
	u := p.Float64()
	return -log1p(-u)
}

// Geometric returns the number of failures before the first success in a
// Bernoulli(prob) sequence, i.e. a sample from Geometric(prob) on {0,1,2,...}.
// prob must be in (0, 1].
func (p *PCG32) Geometric(prob float64) int {
	if prob >= 1 {
		return 0
	}
	if prob <= 0 {
		panic("rng: Geometric called with prob <= 0")
	}
	// Inversion: floor(log(u) / log(1-p)).
	u := p.Float64()
	for u == 0 {
		u = p.Float64()
	}
	g := int(logf(u) / log1p(-prob))
	if g < 0 {
		g = 0
	}
	return g
}

// The two math functions below are small wrappers so that the hot paths in
// this package avoid importing math at every call site; they are defined in
// terms of the standard library in rng_math.go.
