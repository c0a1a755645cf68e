// Package rng is the repository's one pseudo-random generator:
// splitmix64 (Steele, Lea and Flood, OOPSLA 2014). A stream's state
// advances by the constant Gamma and each draw is the state passed
// through the Mix finalizer, so a draw costs one add and three
// xor-shift-multiply rounds, and any draw is computable directly from
// the seed and its index.
//
// Every seeded stream in the repository comes from here: outage
// sojourns, power-monitor noise, fault verdicts, backoff jitter,
// tracer IDs and the sampler's trace-ID hash, edge-cache shard hashes,
// and campaign session draws. Streams are deterministic for a fixed
// seed; none of them is suitable for cryptography.
package rng

import "sync/atomic"

// Gamma is the splitmix64 state increment: 2^64 divided by the golden
// ratio, rounded to odd.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the stateless splitmix64 finalizer: a bijective 64-bit hash
// with full avalanche.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// At returns draw k (counting from 0) of the stream seeded with seed,
// without stepping through the draws before it. At(seed, k) equals the
// (k+1)-th Uint64 of New(seed).
func At(seed uint64, k int) uint64 {
	return Mix(seed + Gamma*uint64(k+1))
}

// Unit maps a draw onto [0, 1), keeping its top 53 bits.
func Unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Stream is a splitmix64 stream held by value. It is not safe for
// concurrent use; the zero value is the stream seeded with 0.
type Stream struct {
	state uint64
}

// New returns the stream seeded with seed.
func New(seed uint64) Stream {
	return Stream{state: seed}
}

// Uint64 advances the stream and returns its next draw.
func (s *Stream) Uint64() uint64 {
	s.state += Gamma
	return Mix(s.state)
}

// Float64 returns the next draw mapped onto [0, 1).
func (s *Stream) Float64() float64 {
	return Unit(s.Uint64())
}

// Atomic is a splitmix64 stream safe for concurrent use: concurrent
// callers each take a distinct draw, and the set of draws handed out
// is the same as a Stream's with the same seed. The zero value is the
// stream seeded with 0.
type Atomic struct {
	state atomic.Uint64
}

// Seed resets the stream to seed.
func (a *Atomic) Seed(seed uint64) {
	a.state.Store(seed)
}

// Uint64 advances the stream and returns its next draw.
func (a *Atomic) Uint64() uint64 {
	return Mix(a.state.Add(Gamma))
}

// Float64 returns the next draw mapped onto [0, 1).
func (a *Atomic) Float64() float64 {
	return Unit(a.Uint64())
}
