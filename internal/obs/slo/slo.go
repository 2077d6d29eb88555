// Package slo evaluates declarative service-level objectives against
// the accounting time-series: an SLA fulfillment floor, a power-budget
// ceiling, or a p99 admission-latency ceiling, each watched through
// classic multi-window burn-rate alerting. An objective grants an
// error budget — the fraction of observations inside a window allowed
// to violate the threshold — and the burn rate is the observed
// violated fraction divided by that budget. An alert fires when both
// the short window (fast signal) and the long window (sustained
// signal) burn faster than budget, and clears when the short window
// recovers; the two-window rule keeps one bad tick from paging and one
// good tick from flapping the alert closed.
//
// Observations are stamped with virtual time and evaluated on the
// fleet's event loop at tick boundaries, so the engine's verdicts are
// deterministic for a deterministic run. The engine is a read-only
// consumer of samples — a side channel like the series store itself.
package slo

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Defaults for objectives that leave windows or budget unset.
const (
	DefaultShortWindow = 300.0  // 5 virtual minutes
	DefaultLongWindow  = 3600.0 // 1 virtual hour
	DefaultBudget      = 0.1    // 10% of observations may violate
)

// Objective is one declarative service-level objective.
type Objective struct {
	// Name identifies the objective in alerts and metrics.
	Name string `json:"name"`
	// Metric is a series metric name (e.g. "sla_pct", "watts") or the
	// engine-supplied "admit_p99_seconds".
	Metric string `json:"metric"`
	// Min is the floor: values below it violate (0 = no floor). Used
	// for SLA fulfillment objectives.
	Min float64 `json:"min,omitempty"`
	// Max is the ceiling: values above it violate (0 = no ceiling).
	// Used for power-budget and latency objectives.
	Max float64 `json:"max,omitempty"`
	// ShortWindow and LongWindow are the burn-rate windows in virtual
	// seconds (defaults 300 and 3600).
	ShortWindow float64 `json:"short_window_s,omitempty"`
	LongWindow  float64 `json:"long_window_s,omitempty"`
	// Budget is the violated fraction of a window the objective
	// tolerates (default 0.1).
	Budget float64 `json:"budget,omitempty"`
}

// Validate reports whether the objective is well-formed.
func (o Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective needs a name")
	}
	if o.Metric == "" {
		return fmt.Errorf("slo: objective %q needs a metric", o.Name)
	}
	if o.Min == 0 && o.Max == 0 {
		return fmt.Errorf("slo: objective %q needs a min floor or a max ceiling", o.Name)
	}
	if o.Min != 0 && o.Max != 0 && o.Max < o.Min {
		return fmt.Errorf("slo: objective %q has max %.3g below min %.3g", o.Name, o.Max, o.Min)
	}
	if o.ShortWindow < 0 || o.LongWindow < 0 {
		return fmt.Errorf("slo: objective %q has a negative window", o.Name)
	}
	if o.shortWindow() > o.longWindow() {
		return fmt.Errorf("slo: objective %q short window %.0fs exceeds long window %.0fs",
			o.Name, o.shortWindow(), o.longWindow())
	}
	if o.Budget < 0 || o.Budget > 1 {
		return fmt.Errorf("slo: objective %q budget %.3g outside [0, 1]", o.Name, o.Budget)
	}
	return nil
}

func (o Objective) shortWindow() float64 {
	if o.ShortWindow > 0 {
		return o.ShortWindow
	}
	return DefaultShortWindow
}

func (o Objective) longWindow() float64 {
	if o.LongWindow > 0 {
		return o.LongWindow
	}
	return DefaultLongWindow
}

func (o Objective) budget() float64 {
	if o.Budget > 0 {
		return o.Budget
	}
	return DefaultBudget
}

func (o Objective) violated(v float64) bool {
	if o.Min != 0 && v < o.Min {
		return true
	}
	if o.Max != 0 && v > o.Max {
		return true
	}
	return false
}

// Parse decodes an objectives file: a JSON array of Objective, each
// validated.
func Parse(data []byte) ([]Objective, error) {
	var objs []Objective
	if err := json.Unmarshal(data, &objs); err != nil {
		return nil, fmt.Errorf("slo: parsing objectives: %w", err)
	}
	seen := make(map[string]bool, len(objs))
	for _, o := range objs {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
	}
	return objs, nil
}

// Alert is one objective's current verdict.
type Alert struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	// State is "ok" or "firing".
	State string `json:"state"`
	// Since is the virtual time the current firing episode started
	// (only while firing).
	Since float64 `json:"since_s,omitempty"`
	// Value is the last observed metric value.
	Value float64 `json:"value"`
	// ShortBurn and LongBurn are the windows' burn rates (violated
	// fraction / budget; > 1 means the budget is burning too fast).
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Budget    float64 `json:"budget"`
	// FiredTotal and ClearedTotal count state transitions, so a
	// post-run reader can see an alert that fired and cleared during
	// the run.
	FiredTotal   int `json:"fired_total"`
	ClearedTotal int `json:"cleared_total"`
}

type obsPoint struct {
	t        float64
	violated bool
}

type objState struct {
	firing    bool
	since     float64
	lastValue float64
	shortBurn float64
	longBurn  float64
	fired     int
	cleared   int
	window    []obsPoint // ascending t, pruned to the long window
}

// Engine evaluates a fixed set of objectives against a stream of
// virtual-time observations.
type Engine struct {
	mu     sync.Mutex
	objs   []Objective
	states []objState
}

// NewEngine builds an engine for the given objectives (assumed
// validated).
func NewEngine(objs []Objective) *Engine {
	return &Engine{objs: objs, states: make([]objState, len(objs))}
}

// Observe evaluates every objective at virtual time t. values resolves
// a metric name to its current value; metrics it cannot resolve are
// skipped this round.
func (e *Engine) Observe(t float64, values func(metric string) (float64, bool)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.objs {
		o := &e.objs[i]
		st := &e.states[i]
		v, ok := values(o.Metric)
		if !ok {
			continue
		}
		st.lastValue = v
		st.window = append(st.window, obsPoint{t: t, violated: o.violated(v)})
		cutoff := t - o.longWindow()
		drop := 0
		for drop < len(st.window) && st.window[drop].t <= cutoff {
			drop++
		}
		if drop > 0 {
			st.window = append(st.window[:0], st.window[drop:]...)
		}
		st.shortBurn = burnRate(st.window, t-o.shortWindow(), o.budget())
		st.longBurn = burnRate(st.window, cutoff, o.budget())
		switch {
		case !st.firing && st.shortBurn > 1 && st.longBurn > 1:
			st.firing = true
			st.since = t
			st.fired++
		case st.firing && st.shortBurn < 1:
			st.firing = false
			st.since = 0
			st.cleared++
		}
	}
}

// burnRate is the violated fraction of observations after cutoff,
// divided by the budget.
func burnRate(window []obsPoint, cutoff float64, budget float64) float64 {
	total, bad := 0, 0
	for _, p := range window {
		if p.t <= cutoff {
			continue
		}
		total++
		if p.violated {
			bad++
		}
	}
	if total == 0 || budget <= 0 {
		return 0
	}
	return float64(bad) / float64(total) / budget
}

// Alerts returns every objective's current verdict, in declaration
// order.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.objs))
	for i, o := range e.objs {
		st := e.states[i]
		a := Alert{
			Name: o.Name, Metric: o.Metric, State: "ok",
			Value: st.lastValue, ShortBurn: st.shortBurn, LongBurn: st.longBurn,
			Budget: o.budget(), FiredTotal: st.fired, ClearedTotal: st.cleared,
		}
		if st.firing {
			a.State = "firing"
			a.Since = st.since
		}
		out = append(out, a)
	}
	return out
}

// Firing returns the number of objectives currently firing.
func (e *Engine) Firing() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for i := range e.states {
		if e.states[i].firing {
			n++
		}
	}
	return n
}
