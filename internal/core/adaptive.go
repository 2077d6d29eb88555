package core

import "fmt"

// Adaptive adjusts the power manager's λmin threshold at runtime from
// observed client satisfaction — the dynamic-threshold extension the
// paper names as future work ("A next step would be to dynamically
// adjust these thresholds", §V-A).
//
// The controller is a conservative one-knob rule: when the jobs
// completed in the last window were satisfied above the target, the
// datacenter can afford to shut nodes down earlier (raise λmin); when
// satisfaction dips below target, back off (lower λmin). λmax stays
// fixed — it is the safety response to load spikes and moving it
// interacts badly with the boot pipeline.
type Adaptive struct {
	// PM is the managed power manager (thresholds are mutated in
	// place).
	PM *PowerManager
	// TargetS is the satisfaction target in percent (default 98, the
	// level the paper equalizes policies at).
	TargetS float64
	// Margin is the dead band above the target before tightening
	// (default 1 percentage point).
	Margin float64
	// Step is the λmin adjustment per decision, as a fraction
	// (default 0.05 = five percentage points).
	Step float64
	// Floor and Ceil bound λmin (defaults 0.10 and λmax − 0.10).
	Floor, Ceil float64
	// Interval is the minimum seconds between adjustments (default
	// 7200 — give the fleet time to settle between moves).
	Interval float64

	lastAdjust float64
	started    bool
	winSum     float64
	winN       int
}

// NewAdaptive wraps a power manager with the default controller.
func NewAdaptive(pm *PowerManager) (*Adaptive, error) {
	if pm == nil {
		return nil, fmt.Errorf("core: adaptive controller needs a power manager")
	}
	return &Adaptive{
		PM:       pm,
		TargetS:  98,
		Margin:   1,
		Step:     0.05,
		Floor:    0.10,
		Ceil:     pm.LambdaMax - 0.10,
		Interval: 7200,
	}, nil
}

// CheckTarget reports whether target is a satisfaction target the
// controller can hold: a percentage in (0, 100], or 0 for static
// thresholds (no controller).
func CheckTarget(target float64) error {
	if target != 0 && !(target > 0 && target <= 100) {
		return fmt.Errorf("core: adaptive satisfaction target must be in (0, 100] percent, or 0 for static thresholds, got %v", target)
	}
	return nil
}

// Add feeds one completed job's satisfaction into the current window.
func (a *Adaptive) Add(satisfaction float64) {
	a.winSum += satisfaction
	a.winN++
}

// Tick evaluates the controller at virtual time now: if the decision
// interval elapsed and the window holds at least one completion, the
// window is consumed and λmin possibly adjusted. It reports whether a
// threshold adjustment happened.
func (a *Adaptive) Tick(now float64) bool {
	if a.started && now-a.lastAdjust < a.Interval {
		return false
	}
	if a.winN == 0 {
		return false
	}
	meanS := a.winSum / float64(a.winN)
	a.winSum, a.winN = 0, 0
	a.started = true
	a.lastAdjust = now

	lmin := a.PM.LambdaMin
	switch {
	case meanS < a.TargetS && lmin > a.Floor:
		lmin -= a.Step
		if lmin < a.Floor {
			lmin = a.Floor
		}
	case meanS > a.TargetS+a.Margin && lmin < a.Ceil:
		lmin += a.Step
		if lmin > a.Ceil {
			lmin = a.Ceil
		}
	default:
		return false
	}
	if lmin == a.PM.LambdaMin {
		return false
	}
	a.PM.LambdaMin = lmin
	return true
}
