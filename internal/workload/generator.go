package workload

import (
	"fmt"
	"math"
	"strconv"

	"energysched/internal/simkit"
)

// GeneratorConfig parameterizes the synthetic Grid5000-like trace
// generator. Defaults (see DefaultGeneratorConfig) are calibrated so a
// one-week trace reproduces the aggregate statistics of the Grid5000
// week of 2007-10-01 the paper evaluates on: ≈ 6 000 CPU-hours of
// work, jobs of 1–4 VCPUs with heavy-tailed runtimes, diurnal and
// weekday/weekend arrival modulation, and SLA deadline factors drawn
// from 1.2–2.0 per the paper's setup. The job shapes and the arrival
// modulation are the constants below.
type GeneratorConfig struct {
	// Seed drives all random streams deterministically.
	Seed int64
	// Horizon is the trace length in seconds (a week by default).
	Horizon float64
	// JobsPerDay is the mean number of arrivals per 24 h at the
	// diurnal baseline.
	JobsPerDay float64
	// BurstProb is the chance an arrival is a burst head; bursts
	// submit burstSize extra near-simultaneous jobs (bag-of-tasks
	// behaviour typical of grid traces).
	BurstProb float64
}

// The calibrated job shapes and arrival modulation of the Grid5000 week.
const (
	// runtimeMu, runtimeSigma parameterize the lognormal runtime
	// (seconds): exp(N(mu, sigma)), median ≈ 2000 s.
	runtimeMu, runtimeSigma float64 = 7.6, 1.25
	// minRuntime, maxRuntime clamp runtimes (seconds).
	minRuntime, maxRuntime float64 = 60, 24 * 3600
	// memPerVCPU is the memory units requested per VCPU.
	memPerVCPU float64 = 5
	// memJitter adds ±jitter uniform noise to memory.
	memJitter float64 = 2
	// deadlineMin, deadlineMax bound the deadline factor.
	deadlineMin, deadlineMax float64 = 1.2, 2.0
	// diurnalAmplitude in [0,1): arrival-rate swing between night
	// trough and afternoon peak.
	diurnalAmplitude float64 = 0.45
	// weekendFactor scales arrival rate on days 6–7.
	weekendFactor float64 = 0.55
	// burstSize is the mean extra jobs in a burst.
	burstSize float64 = 35
)

// cpuWeights gives the probability weight of requesting 1, 2, 3 or 4
// VCPUs (index 0 = 1 VCPU).
var cpuWeights = [4]float64{0.68, 0.20, 0.05, 0.07}

// DefaultGeneratorConfig returns the calibrated Grid5000-like
// configuration for a one-week trace.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Seed:       1,
		Horizon:    7 * 24 * 3600,
		JobsPerDay: 260,
		// Grid traces are dominated by bag-of-tasks submissions:
		// occasional bursts of many near-simultaneous jobs. These
		// spikes are what separate consolidating policies (which
		// absorb them at ~4 jobs per node) from one-job-per-node or
		// random placement.
		BurstProb: 0.025,
	}
}

// Validate reports configuration errors. Every check is written to
// fail on NaN, and the horizon and the arrival rate must be finite: the
// generator draws arrivals until the horizon.
func (c GeneratorConfig) Validate() error {
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 1) {
		return fmt.Errorf("workload: horizon must be positive and finite, got %v", c.Horizon)
	}
	if !(c.JobsPerDay > 0) || math.IsInf(c.JobsPerDay, 1) {
		return fmt.Errorf("workload: jobs per day must be positive and finite, got %v", c.JobsPerDay)
	}
	return nil
}

// Generate produces a synthetic trace: ReadAll over the streaming
// generator, which owns the arrival process. The same config always
// yields the same trace.
func Generate(cfg GeneratorConfig) (*Trace, error) {
	src, err := NewGeneratorSource(cfg)
	if err != nil {
		return nil, err
	}
	return ReadAll(src)
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg GeneratorConfig) *Trace {
	tr, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return tr
}

// rateAt returns the instantaneous arrival rate at trace time t,
// applying diurnal and weekend modulation. The trace starts on a
// Monday at midnight, like the paper's Grid5000 week.
func (c GeneratorConfig) rateAt(t float64) float64 {
	base := c.JobsPerDay / (24 * 3600)
	day := int(t/86400) % 7
	hour := (t - 86400*float64(int(t/86400))) / 3600
	// Diurnal: trough ~04:00, peak ~15:00, sinusoidal.
	phase := (hour - 15) / 24 * 2 * math.Pi
	diurnal := 1 + diurnalAmplitude*math.Cos(phase)
	rate := base * diurnal
	if day >= 5 {
		rate *= weekendFactor
	}
	return rate
}

func newJob(id int, at float64, runtimes, shapes, deadlines *simkit.Stream) Job {
	run := runtimes.LogNormal(runtimeMu, runtimeSigma)
	if run < minRuntime {
		run = minRuntime
	}
	if run > maxRuntime {
		run = maxRuntime
	}
	vcpus := pickWeighted(shapes, cpuWeights)
	mem := float64(vcpus)*memPerVCPU + shapes.Uniform(-memJitter, memJitter)
	if mem < 1 {
		mem = 1
	}
	return Job{
		ID:             id,
		Name:           jobName("g5k-", id),
		Submit:         at,
		Duration:       run,
		CPU:            float64(vcpus) * 100,
		Mem:            mem,
		DeadlineFactor: deadlines.Uniform(deadlineMin, deadlineMax),
	}
}

// pickWeighted draws 1..len(w) proportionally to w.
func pickWeighted(s *simkit.Stream, w [4]float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	r := s.Float64() * total
	for i, x := range w {
		if r < x {
			return i + 1
		}
		r -= x
	}
	return len(w)
}

// jobName returns prefix followed by id in decimal. It is built in a
// stack buffer, so the name costs the one string allocation.
func jobName(prefix string, id int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(id), 10))
}
