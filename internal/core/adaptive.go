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

	lastAdjust float64
	started    bool
	winSum     float64
	winN       int
}

// The controller's fixed rule.
const (
	// adaptiveMargin is the dead band above the target before
	// tightening, in percentage points.
	adaptiveMargin float64 = 1
	// adaptiveStep is the λmin adjustment per decision, as a fraction
	// (five percentage points).
	adaptiveStep float64 = 0.05
	// adaptiveGap bounds λmin to [adaptiveGap, λmax − adaptiveGap].
	adaptiveGap float64 = 0.10
	// adaptiveInterval is the minimum seconds between adjustments:
	// give the fleet time to settle between moves.
	adaptiveInterval float64 = 7200
)

// NewAdaptive wraps a power manager with the default controller.
func NewAdaptive(pm *PowerManager) (*Adaptive, error) {
	if pm == nil {
		return nil, fmt.Errorf("core: adaptive controller needs a power manager")
	}
	return &Adaptive{PM: pm, TargetS: 98}, nil
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
	if a.started && now-a.lastAdjust < adaptiveInterval {
		return false
	}
	if a.winN == 0 {
		return false
	}
	meanS := a.winSum / float64(a.winN)
	a.winSum, a.winN = 0, 0
	a.started = true
	a.lastAdjust = now

	lmin, ceil := a.PM.LambdaMin, a.PM.LambdaMax-adaptiveGap
	switch {
	case meanS < a.TargetS && lmin > adaptiveGap:
		lmin -= adaptiveStep
		if lmin < adaptiveGap {
			lmin = adaptiveGap
		}
	case meanS > a.TargetS+adaptiveMargin && lmin < ceil:
		lmin += adaptiveStep
		if lmin > ceil {
			lmin = ceil
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
