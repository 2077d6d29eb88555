package core

import (
	"math"
	"testing"
)

func newAdaptive(t *testing.T) *Adaptive {
	t.Helper()
	pm := mustPM(t, 30, 90, 1)
	a, err := NewAdaptive(pm)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(nil); err == nil {
		t.Error("nil power manager accepted")
	}
	a := newAdaptive(t)
	if a.TargetS != 98 {
		t.Errorf("default target = %v, want 98", a.TargetS)
	}
}

// TestCheckTarget: a satisfaction target is a percentage in (0, 100], or
// 0 for static thresholds; anything else, NaN included, is an error.
func TestCheckTarget(t *testing.T) {
	for _, ok := range []float64{0, 0.5, 98, 100} {
		if err := CheckTarget(ok); err != nil {
			t.Errorf("target %v rejected: %v", ok, err)
		}
	}
	for _, bad := range []float64{-3, 100.5, 150, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckTarget(bad); err == nil {
			t.Errorf("target %v accepted", bad)
		}
	}
}

func TestAdaptiveTightensWhenSatisfied(t *testing.T) {
	a := newAdaptive(t)
	for i := 0; i < 20; i++ {
		a.Add(100)
	}
	if !a.Tick(0) {
		t.Fatal("no adjustment despite perfect satisfaction")
	}
	if a.PM.LambdaMin <= 0.30 {
		t.Errorf("λmin = %v, want raised above 0.30", a.PM.LambdaMin)
	}
	if want := 0.30 + adaptiveStep; a.PM.LambdaMin != want {
		t.Errorf("λmin = %v, want one step up, %v", a.PM.LambdaMin, want)
	}
}

func TestAdaptiveBacksOffWhenViolating(t *testing.T) {
	a := newAdaptive(t)
	for i := 0; i < 20; i++ {
		a.Add(80)
	}
	if !a.Tick(0) {
		t.Fatal("no adjustment despite violations")
	}
	if a.PM.LambdaMin >= 0.30 {
		t.Errorf("λmin = %v, want lowered below 0.30", a.PM.LambdaMin)
	}
}

func TestAdaptiveDeadBand(t *testing.T) {
	a := newAdaptive(t)
	a.Add(98.5) // within [target, target+margin]
	if a.Tick(0) {
		t.Error("adjusted inside the dead band")
	}
}

func TestAdaptiveIntervalAndEmptyWindow(t *testing.T) {
	a := newAdaptive(t)
	// Empty window: nothing to learn from.
	if a.Tick(0) {
		t.Error("adjusted with no completions")
	}
	a.Add(100)
	if !a.Tick(0) {
		t.Fatal("first adjustment denied")
	}
	a.Add(100)
	if a.Tick(100) {
		t.Error("adjusted before the interval elapsed")
	}
	if !a.Tick(adaptiveInterval + 1) {
		t.Error("adjustment denied after the interval")
	}
}

func TestAdaptiveRespectsBounds(t *testing.T) {
	a := newAdaptive(t)
	// Push up against the ceiling.
	for i := 0; i < 50; i++ {
		a.Add(100)
		a.Tick(float64(i) * (adaptiveInterval + 1))
	}
	if ceil := a.PM.LambdaMax - adaptiveGap; a.PM.LambdaMin > ceil+1e-9 {
		t.Errorf("λmin %v exceeded ceiling %v", a.PM.LambdaMin, ceil)
	}
	// And down against the floor.
	b := newAdaptive(t)
	for i := 0; i < 50; i++ {
		b.Add(0)
		b.Tick(float64(i) * (adaptiveInterval + 1))
	}
	if b.PM.LambdaMin < adaptiveGap-1e-9 {
		t.Errorf("λmin %v fell below floor %v", b.PM.LambdaMin, adaptiveGap)
	}
}

func TestAdaptiveWindowResets(t *testing.T) {
	a := newAdaptive(t)
	a.Add(0) // terrible window
	a.Tick(0)
	down := a.PM.LambdaMin
	// Next window is all good: the controller must move up, not be
	// dragged by the consumed window.
	a.Add(100)
	a.Tick(adaptiveInterval + 1)
	if a.PM.LambdaMin <= down {
		t.Errorf("λmin did not recover: %v -> %v", down, a.PM.LambdaMin)
	}
}
