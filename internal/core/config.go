// Package core implements the paper's primary contribution: the
// score-based, power-aware VM scheduling policy (§III). Every
// tentative ⟨host, VM⟩ allocation is scored as the sum of penalty
// families — hardware/software requirements, resource requirements,
// virtualization overheads, operation concurrency, power efficiency,
// dynamic SLA enforcement, and reliability — and a hill-climbing
// solver repeatedly applies the best improving move until no move
// improves the system or an iteration limit is hit. A companion power
// manager turns nodes off and on under the λmin/λmax working-ratio
// thresholds (§III-C).
package core

import (
	"fmt"
	"math"
)

// Config parameterizes the score-based scheduler. Zero value is not
// valid; start from DefaultConfig.
type Config struct {
	// Feature toggles matching the paper's incremental variants:
	// SB0 = power only; SB1 = SB0 + virtualization overheads;
	// SB2 = SB1 + concurrency; SB = SB2 + migration (everything).

	// EnableVirt adds Pvirt (creation and migration cost penalties).
	EnableVirt bool
	// EnableConc adds Pconc (in-flight operation concurrency penalty).
	EnableConc bool
	// enablePower adds Ppwr (consolidation reward / empty-host cost);
	// every variant has it, and only the differential tests drop it.
	enablePower bool
	// enableSLA adds PSLA (dynamic SLA enforcement, §III-A5) and
	// enableFault Pfault (reliability-aware placement, §III-A6). The
	// paper's experiments exercise neither; the differential tests
	// turn them on.
	enableSLA, enableFault bool
	// Migration allows the solver to move running VMs.
	Migration bool

	// Cempty (Ce) is the cost of keeping a host under-used; the paper
	// sets it near the creation time (20 in the evaluation).
	Cempty float64
	// Cfill (Cf) is the reward slope for filling occupied hosts (40).
	Cfill float64
	// THempty: hosts with at most this many VMs are "emptiable" (1).
	THempty int
	// MaxIterations bounds the hill-climbing loop; 0 = 4×VMs, min 32.
	MaxIterations int
	// MigrationGainMin is the hysteresis on migration moves: a
	// running VM only moves when the score improvement exceeds this
	// amount. It realizes the paper's "migration penalties ...
	// prevent the same VM from moving too often" without letting
	// float-level gains thrash long-running VMs (whose Pm penalty
	// decays towards zero). Placements of queued VMs are exempt.
	MigrationGainMin float64
	// migrationCooldown keeps a VM in place for this many seconds
	// after a completed migration (0 = default 3600; negative
	// disables). The second half of the same anti-thrash requirement.
	migrationCooldown float64
	// NaiveSolver bypasses the slab kernel and re-evaluates the full
	// V×H matrix on every hill-climbing iteration, exactly as
	// Algorithm 1 is written. Both emit identical actions; the naive
	// evaluator exists as the reference oracle for differential testing
	// and the complexity ablation.
	NaiveSolver bool
}

// The fixed costs of the score (§III-A).
const (
	// csla is the cost of breaking a VM's SLA.
	csla float64 = 100
	// thsla is the fulfillment tolerance threshold below which a
	// ⟨host, VM⟩ combination is forbidden.
	thsla float64 = 0.5
	// cfail is the cost of failing a VM (reliability penalty scale).
	cfail float64 = 200
	// queueScore is the large finite score of holding a VM in the
	// scheduler's virtual host, making any feasible placement the
	// highest-benefit move (the paper uses ∞; a large finite value
	// avoids ∞−∞ in the improvement arithmetic).
	queueScore float64 = 1e7
)

// DefaultConfig returns the paper's evaluation parameters (§V):
// THempty = 1, Cempty = 20, Cfill = 40, all penalties of the full SB
// configuration enabled.
func DefaultConfig() Config {
	return Config{
		EnableVirt:        true,
		EnableConc:        true,
		enablePower:       true,
		Migration:         true,
		Cempty:            20,
		Cfill:             40,
		THempty:           1,
		MigrationGainMin:  35,
		migrationCooldown: 3600,
	}
}

// SB0Config is the basic variant: hardware/software + resource
// requirements + power efficiency, no migration (Table II).
func SB0Config() Config {
	c := DefaultConfig()
	c.EnableVirt = false
	c.EnableConc = false
	c.Migration = false
	return c
}

// SB1Config adds virtualization overheads to SB0 (Table III).
func SB1Config() Config {
	c := SB0Config()
	c.EnableVirt = true
	return c
}

// SB2Config adds operation-concurrency awareness to SB1 (Table III).
func SB2Config() Config {
	c := SB1Config()
	c.EnableConc = true
	return c
}

// SBConfig is the full policy with migration (Table IV).
func SBConfig() Config {
	return DefaultConfig()
}

// Validate reports configuration errors. Every check is written to
// fail on NaN, and the costs must be finite: one NaN or infinite score
// makes every comparison of the hill climb false.
func (c Config) Validate() error {
	if !(c.Cempty >= 0) || !(c.Cfill >= 0) || math.IsInf(c.Cempty, 1) || math.IsInf(c.Cfill, 1) {
		return fmt.Errorf("core: Cempty/Cfill must be finite and non-negative (%.1f, %.1f)", c.Cempty, c.Cfill)
	}
	if c.THempty < 0 {
		return fmt.Errorf("core: THempty must be non-negative, got %d", c.THempty)
	}
	if math.IsNaN(c.MigrationGainMin) {
		return fmt.Errorf("core: MigrationGainMin must be a number")
	}
	return nil
}

// variantName derives the report label from the toggles.
func (c Config) variantName() string {
	switch {
	case c.Migration:
		return "SB"
	case c.EnableConc:
		return "SB2"
	case c.EnableVirt:
		return "SB1"
	default:
		return "SB0"
	}
}
