// Package metrics provides the measurement instruments the evaluation
// reports are built from: exact time-weighted averages for
// piecewise-constant signals (working/online node counts), counters,
// and per-job QoS aggregation matching the paper's result tables.
package metrics

import "math"

// TimeAvg computes the exact time-weighted average of a
// piecewise-constant signal observed at change points.
type TimeAvg struct {
	start    float64
	lastTime float64
	lastVal  float64
	area     float64
	started  bool
}

// NewTimeAvg starts the signal at time t0 with value v.
func NewTimeAvg(t0, v float64) *TimeAvg {
	return &TimeAvg{start: t0, lastTime: t0, lastVal: v, started: true}
}

// Observe records that the signal became v at time t (t must not
// decrease).
func (a *TimeAvg) Observe(t, v float64) {
	if !a.started {
		a.start, a.lastTime, a.lastVal, a.started = t, t, v, true
		return
	}
	if t < a.lastTime {
		panic("metrics: time went backwards")
	}
	a.area += a.lastVal * (t - a.lastTime)
	a.lastTime = t
	a.lastVal = v
}

// Mean returns the time-weighted mean over [start, t], extending the
// last observed value to t.
func (a *TimeAvg) Mean(t float64) float64 {
	if !a.started || t <= a.start {
		return a.lastVal
	}
	area := a.area + a.lastVal*(t-a.lastTime)
	return area / (t - a.start)
}

// Welford accumulates mean and variance online (Welford's algorithm);
// used for per-job satisfaction/delay statistics and the validation
// experiment's instantaneous-error statistics.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }
