package simkit

import (
	"math"
	"math/rand"
)

// Stream is a named, independently-seeded random stream. Experiments
// create one stream per stochastic process (arrivals, creation jitter,
// failures, ...) so that changing one process does not perturb the
// draws of another — the standard variance-reduction discipline for
// simulation studies.
type Stream struct {
	name string
	rng  *rand.Rand
}

// NewStream derives a deterministic stream from a base seed and a
// name. The same (seed, name) pair always yields the same sequence.
func NewStream(seed int64, name string) *Stream {
	h := seed
	for _, c := range name {
		h = h*1000003 + int64(c)
	}
	return &Stream{name: name, rng: rand.New(rand.NewSource(h))}
}

// Name returns the stream's name.
func (s *Stream) Name() string { return s.name }

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform draw in [0, n).
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// Uniform returns a uniform draw in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Normal returns a Gaussian draw with the given mean and standard
// deviation. The paper models VM creation time as N(40, 2.5).
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// NormalPositive returns a Gaussian draw truncated below at zero
// (resampled), for durations that must be non-negative.
func (s *Stream) NormalPositive(mean, stddev float64) float64 {
	for i := 0; i < 64; i++ {
		v := s.Normal(mean, stddev)
		if v > 0 {
			return v
		}
	}
	return mean // pathological parameters; fall back to the mean
}

// Exp returns an exponential draw with the given rate (events per
// second). Used for failure inter-arrival times.
func (s *Stream) Exp(rate float64) float64 {
	return s.rng.ExpFloat64() / rate
}

// LogNormal returns exp(N(mu, sigma)) — the canonical heavy-tailed
// distribution for HPC job runtimes.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}
