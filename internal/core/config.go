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

import "fmt"

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
	// EnablePower adds Ppwr (consolidation reward / empty-host cost).
	EnablePower bool
	// EnableSLA adds PSLA (dynamic SLA enforcement).
	EnableSLA bool
	// EnableFault adds Pfault (reliability-aware placement).
	EnableFault bool
	// Migration allows the solver to move running VMs.
	Migration bool

	// Cempty (Ce) is the cost of keeping a host under-used; the paper
	// sets it near the creation time (20 in the evaluation).
	Cempty float64
	// Cfill (Cf) is the reward slope for filling occupied hosts (40).
	Cfill float64
	// THempty: hosts with at most this many VMs are "emptiable" (1).
	THempty int
	// Csla is the cost of breaking a VM's SLA.
	Csla float64
	// THsla is the fulfillment tolerance threshold below which a
	// ⟨host, VM⟩ combination is forbidden.
	THsla float64
	// Cfail is the cost of failing a VM (reliability penalty scale).
	Cfail float64
	// MaxIterations bounds the hill-climbing loop; 0 = 4×VMs, min 32.
	MaxIterations int
	// MigrationGainMin is the hysteresis on migration moves: a
	// running VM only moves when the score improvement exceeds this
	// amount. It realizes the paper's "migration penalties ...
	// prevent the same VM from moving too often" without letting
	// float-level gains thrash long-running VMs (whose Pm penalty
	// decays towards zero). Placements of queued VMs are exempt.
	MigrationGainMin float64
	// MigrationCooldown keeps a VM in place for this many seconds
	// after a completed migration (0 = default 3600; negative
	// disables). The second half of the same anti-thrash requirement.
	MigrationCooldown float64
	// QueueScore is the large finite score of holding a VM in the
	// scheduler's virtual host, making any feasible placement the
	// highest-benefit move (the paper uses ∞; a large finite value
	// avoids ∞−∞ in the improvement arithmetic).
	QueueScore float64
	// NaiveSolver bypasses the slab kernel and re-evaluates the full
	// V×H matrix on every hill-climbing iteration, exactly as
	// Algorithm 1 is written. Both emit identical actions; the naive
	// evaluator exists as the reference oracle for differential testing
	// and the complexity ablation.
	NaiveSolver bool
}

// DefaultConfig returns the paper's evaluation parameters (§V):
// THempty = 1, Cempty = 20, Cfill = 40, all penalties of the full SB
// configuration enabled.
func DefaultConfig() Config {
	return Config{
		EnableVirt:        true,
		EnableConc:        true,
		EnablePower:       true,
		EnableSLA:         false, // not exercised in the paper's experiments
		EnableFault:       false, // idem; enable for the fault-tolerance example
		Migration:         true,
		Cempty:            20,
		Cfill:             40,
		THempty:           1,
		Csla:              100,
		THsla:             0.5,
		Cfail:             200,
		QueueScore:        1e7,
		MigrationGainMin:  35,
		MigrationCooldown: 3600,
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

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cempty < 0 || c.Cfill < 0 {
		return fmt.Errorf("core: Cempty/Cfill must be non-negative (%.1f, %.1f)", c.Cempty, c.Cfill)
	}
	if c.THempty < 0 {
		return fmt.Errorf("core: THempty must be non-negative, got %d", c.THempty)
	}
	if c.THsla < 0 || c.THsla >= 1 {
		return fmt.Errorf("core: THsla %.2f outside [0,1)", c.THsla)
	}
	if c.QueueScore <= 0 {
		return fmt.Errorf("core: QueueScore must be positive")
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
