package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperTableIPoints(t *testing.T) {
	m := PaperTableI()
	cases := []struct{ cpu, want float64 }{
		{0, 230}, {100, 259}, {200, 273}, {300, 291}, {400, 304},
	}
	for _, c := range cases {
		if got := m.Power(c.cpu); got != c.want {
			t.Errorf("Power(%v) = %v, want %v", c.cpu, got, c.want)
		}
	}
}

func TestInterpolatedMidpoints(t *testing.T) {
	m := PaperTableI()
	// Halfway between 0 and 100: (230+259)/2.
	if got := m.Power(50); math.Abs(got-244.5) > 1e-9 {
		t.Errorf("Power(50) = %v, want 244.5", got)
	}
	if got := m.Power(350); math.Abs(got-297.5) > 1e-9 {
		t.Errorf("Power(350) = %v, want 297.5", got)
	}
}

func TestInterpolatedClamping(t *testing.T) {
	m := PaperTableI()
	if got := m.Power(-50); got != 230 {
		t.Errorf("Power(-50) = %v, want clamp to 230", got)
	}
	if got := m.Power(1e6); got != 304 {
		t.Errorf("Power(1e6) = %v, want clamp to 304", got)
	}
}

func TestInterpolatedAccessors(t *testing.T) {
	m := PaperTableI()
	if m.Capacity() != 400 || m.IdlePower() != 230 || m.PeakPower() != 304 {
		t.Errorf("accessors = (%v, %v, %v)", m.Capacity(), m.IdlePower(), m.PeakPower())
	}
}

func TestInterpolatedValidation(t *testing.T) {
	if _, err := NewInterpolatedModel([]Point{{0, 230}}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := NewInterpolatedModel([]Point{{0, 230}, {0, 259}}); err == nil {
		t.Error("duplicate CPU accepted")
	}
	if _, err := NewInterpolatedModel([]Point{{100, 259}, {0, 230}}); err != nil {
		t.Errorf("unsorted points rejected: %v", err)
	}
}

func TestInterpolatedMonotoneProperty(t *testing.T) {
	m := PaperTableI()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 500), math.Mod(b, 500)
		if a > b {
			a, b = b, a
		}
		return m.Power(a) <= m.Power(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterIntegration(t *testing.T) {
	var m Meter
	m.Observe(0, 100)
	m.Observe(10, 200) // 100 W for 10 s = 1000 J
	m.Observe(20, 0)   // 200 W for 10 s = 2000 J
	m.Close(30)        // 0 W for 10 s
	if got := m.JoulesAt(30); got != 3000 {
		t.Errorf("JoulesAt(30) = %v, want 3000", got)
	}
	if got := m.KWhAt(30); math.Abs(got-3000.0/3.6e6) > 1e-15 {
		t.Errorf("KWhAt(30) = %v", got)
	}
}

func TestMeterBackwardsPanics(t *testing.T) {
	var m Meter
	m.Observe(10, 100)
	defer func() {
		if recover() == nil {
			t.Error("backwards observation did not panic")
		}
	}()
	m.Observe(5, 50)
}

func TestMeterZeroDuration(t *testing.T) {
	var m Meter
	m.Observe(0, 100)
	m.Observe(0, 250) // level change at the same instant
	m.Observe(1, 250)
	if got := m.JoulesAt(1); got != 250 {
		t.Errorf("JoulesAt(1) = %v, want 250", got)
	}
	if m.CurrentWatts() != 250 {
		t.Errorf("CurrentWatts = %v", m.CurrentWatts())
	}
}

// Property: the meter's integral of a piecewise-constant signal equals
// the hand-computed sum.
func TestMeterSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		var m Meter
		m.Observe(0, 0)
		tm := 0.0
		var want float64
		level := 0.0
		for _, s := range steps {
			dt := float64(s%100) + 0.5
			newLevel := float64(s % 400)
			want += level * dt
			tm += dt
			m.Observe(tm, newLevel)
			level = newLevel
		}
		return math.Abs(m.JoulesAt(tm)-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
