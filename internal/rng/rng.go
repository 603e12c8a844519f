// Package rng provides seeded, deterministic pseudo-randomness for the
// simulation. Every stochastic component (workload arrival processes, crash
// point selection, work-stealing victim choice) owns its own generator,
// derived from a root seed, so simulations replay identically and components
// do not perturb each other's streams.
package rng

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core). The zero
// value is usable but fixed-seeded; prefer New.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent child stream from r labelled by id. Forking
// with distinct ids yields decorrelated streams regardless of how much the
// parent has been consumed afterwards.
func (r *Rand) Fork(id uint64) *Rand {
	// Mix the current state with the id through one splitmix round each.
	return New(mix(r.state^0x9e3779b97f4a7c15) ^ mix(id*0xbf58476d1ce4e5b9+1))
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed sample with the given mean
// (i.e. a Poisson process inter-arrival time).
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Bytes fills b with pseudo-random bytes.
func (r *Rand) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
