package power

// Meter integrates instantaneous power over virtual time to produce
// energy totals. The datacenter harness calls Observe whenever a
// node's power draw changes; the meter accumulates the previous level
// over the elapsed interval (exact for piecewise-constant draw, which
// is what an event-driven model produces). The zero Meter is ready to
// use, and its owner keeps it by value.
type Meter struct {
	lastTime  float64
	lastWatts float64
	joules    float64
	started   bool
}

// Observe records that at time t the draw became watts; the first
// observation starts the meter. Time must be monotonically
// non-decreasing.
func (m *Meter) Observe(t, watts float64) {
	if !m.started {
		m.lastTime, m.lastWatts, m.started = t, watts, true
		return
	}
	if t < m.lastTime {
		panic("power: meter observed time going backwards")
	}
	m.joules += m.lastWatts * (t - m.lastTime)
	m.lastTime = t
	m.lastWatts = watts
}

// Close integrates up to time t without changing the draw level.
func (m *Meter) Close(t float64) {
	m.Observe(t, m.lastWatts)
}

// JoulesAt returns the energy accumulated through time t — the
// current integral extended at the present draw — without mutating
// the meter. Calling Close(t) first changes the result by not one bit
// (same additions in the same order).
func (m *Meter) JoulesAt(t float64) float64 {
	if !m.started || t <= m.lastTime {
		return m.joules
	}
	return m.joules + m.lastWatts*(t-m.lastTime)
}

// KWhAt is JoulesAt in kWh.
func (m *Meter) KWhAt(t float64) float64 { return m.JoulesAt(t) / 3.6e6 }

// CurrentWatts returns the most recently observed draw.
func (m *Meter) CurrentWatts() float64 { return m.lastWatts }
