// Package power models the electrical consumption of datacenter nodes.
//
// The paper measures a 4-way Xen host (Table I) and concludes that
// consumption depends only on the total CPU consumed by the VMs, not
// on how many VMs consume it: 230 W idle, 259 W at 100 % CPU, 273 W at
// 200 %, 291 W at 300 %, 304 W at 400 %. InterpolatedModel encodes
// exactly that curve.
package power

import (
	"fmt"
	"sort"
)

// Point is a measured (cpu%, watts) sample.
type Point struct {
	CPU   float64
	Watts float64
}

// InterpolatedModel linearly interpolates between measured points,
// exactly reproducing a measured power curve such as the paper's
// Table I.
type InterpolatedModel struct {
	points []Point
}

// NewInterpolatedModel builds a model from measured samples. Points
// are sorted by CPU; at least two points are required and CPU values
// must be distinct.
func NewInterpolatedModel(points []Point) (*InterpolatedModel, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("power: need at least 2 points, got %d", len(points))
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].CPU < ps[j].CPU })
	for i := 1; i < len(ps); i++ {
		if ps[i].CPU == ps[i-1].CPU {
			return nil, fmt.Errorf("power: duplicate CPU point %.1f", ps[i].CPU)
		}
	}
	return &InterpolatedModel{points: ps}, nil
}

// MustInterpolated is NewInterpolatedModel that panics on error, for
// package-level defaults built from known-good literals.
func MustInterpolated(points []Point) *InterpolatedModel {
	m, err := NewInterpolatedModel(points)
	if err != nil {
		panic(err)
	}
	return m
}

// Power returns watts drawn when the node consumes cpu percent of CPU
// in total (100 = one full core), by piecewise-linear interpolation,
// clamping outside the measured range.
func (m *InterpolatedModel) Power(cpu float64) float64 {
	ps := m.points
	if cpu <= ps[0].CPU {
		return ps[0].Watts
	}
	last := ps[len(ps)-1]
	if cpu >= last.CPU {
		return last.Watts
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].CPU >= cpu })
	lo, hi := ps[i-1], ps[i]
	frac := (cpu - lo.CPU) / (hi.CPU - lo.CPU)
	return lo.Watts + frac*(hi.Watts-lo.Watts)
}

// IdlePower returns Power(0).
func (m *InterpolatedModel) IdlePower() float64 { return m.points[0].Watts }

// PaperTableI returns the power model measured in the paper's Table I
// for the 4-way Xen host: 230 W idle rising to 304 W at 400 % CPU.
func PaperTableI() *InterpolatedModel {
	return MustInterpolated([]Point{
		{CPU: 0, Watts: 230},
		{CPU: 100, Watts: 259},
		{CPU: 200, Watts: 273},
		{CPU: 300, Watts: 291},
		{CPU: 400, Watts: 304},
	})
}
