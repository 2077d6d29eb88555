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
// from 1.2–2.0 per the paper's setup.
type GeneratorConfig struct {
	// Seed drives all random streams deterministically.
	Seed int64
	// Horizon is the trace length in seconds (a week by default).
	Horizon float64
	// JobsPerDay is the mean number of arrivals per 24 h at the
	// diurnal baseline.
	JobsPerDay float64
	// RuntimeMu, RuntimeSigma parameterize the lognormal runtime
	// (seconds): exp(N(mu, sigma)).
	RuntimeMu, RuntimeSigma float64
	// MinRuntime, MaxRuntime clamp runtimes (seconds).
	MinRuntime, MaxRuntime float64
	// CPUWeights gives the probability weight of requesting 1, 2, 3
	// or 4 VCPUs (index 0 = 1 VCPU).
	CPUWeights [4]float64
	// MemPerVCPU is the memory units requested per VCPU.
	MemPerVCPU float64
	// MemJitter adds ±jitter uniform noise to memory.
	MemJitter float64
	// DeadlineMin, DeadlineMax bound the deadline factor.
	DeadlineMin, DeadlineMax float64
	// DiurnalAmplitude in [0,1): arrival-rate swing between night
	// trough and afternoon peak.
	DiurnalAmplitude float64
	// WeekendFactor scales arrival rate on days 6–7.
	WeekendFactor float64
	// BurstProb is the chance an arrival is a burst head; bursts
	// submit BurstSize extra near-simultaneous jobs (bag-of-tasks
	// behaviour typical of grid traces).
	BurstProb float64
	// BurstSize is the mean extra jobs in a burst.
	BurstSize float64
}

// DefaultGeneratorConfig returns the calibrated Grid5000-like
// configuration for a one-week trace.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Seed:             1,
		Horizon:          7 * 24 * 3600,
		JobsPerDay:       260,
		RuntimeMu:        7.6, // median ≈ 2000 s
		RuntimeSigma:     1.25,
		MinRuntime:       60,
		MaxRuntime:       24 * 3600,
		CPUWeights:       [4]float64{0.68, 0.20, 0.05, 0.07},
		MemPerVCPU:       5,
		MemJitter:        2,
		DeadlineMin:      1.2,
		DeadlineMax:      2.0,
		DiurnalAmplitude: 0.45,
		WeekendFactor:    0.55,
		// Grid traces are dominated by bag-of-tasks submissions:
		// occasional bursts of many near-simultaneous jobs. These
		// spikes are what separate consolidating policies (which
		// absorb them at ~4 jobs per node) from one-job-per-node or
		// random placement.
		BurstProb: 0.025,
		BurstSize: 35,
	}
}

// Validate reports configuration errors.
func (c GeneratorConfig) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("workload: horizon must be positive")
	}
	if c.JobsPerDay <= 0 {
		return fmt.Errorf("workload: jobs per day must be positive")
	}
	if c.DeadlineMin < 1 || c.DeadlineMax < c.DeadlineMin {
		return fmt.Errorf("workload: invalid deadline factors [%.2f, %.2f]", c.DeadlineMin, c.DeadlineMax)
	}
	if c.MinRuntime <= 0 || c.MaxRuntime < c.MinRuntime {
		return fmt.Errorf("workload: invalid runtime bounds [%.1f, %.1f]", c.MinRuntime, c.MaxRuntime)
	}
	var w float64
	for _, x := range c.CPUWeights {
		if x < 0 {
			return fmt.Errorf("workload: negative CPU weight")
		}
		w += x
	}
	if w <= 0 {
		return fmt.Errorf("workload: CPU weights sum to zero")
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
	diurnal := 1 + c.DiurnalAmplitude*math.Cos(phase)
	rate := base * diurnal
	if day >= 5 {
		rate *= c.WeekendFactor
	}
	return rate
}

func (c GeneratorConfig) newJob(id int, at float64, runtimes, shapes, deadlines *simkit.Stream) Job {
	run := runtimes.LogNormal(c.RuntimeMu, c.RuntimeSigma)
	if run < c.MinRuntime {
		run = c.MinRuntime
	}
	if run > c.MaxRuntime {
		run = c.MaxRuntime
	}
	vcpus := pickWeighted(shapes, c.CPUWeights)
	mem := float64(vcpus)*c.MemPerVCPU + shapes.Uniform(-c.MemJitter, c.MemJitter)
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
		DeadlineFactor: deadlines.Uniform(c.DeadlineMin, c.DeadlineMax),
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
