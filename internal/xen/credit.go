// Package xen models the CPU-sharing behaviour of the Xen credit
// hyper-scheduler: each virtual machine (domain) has a weight and an
// optional cap, and the physical CPU capacity is distributed among
// runnable domains in proportion to their weights, never exceeding a
// domain's cap or demand, with unused share redistributed
// (work-conserving mode).
//
// The paper builds its simulator on measurements of this scheduler
// ("including characteristics like Virtual Machine Weights and
// Capabilities"); this package reproduces the steady-state allocation
// the credit scheduler converges to via progressive filling
// (water-filling), which is the standard fluid approximation.
package xen

// DefaultWeight is Xen's default domain weight.
const DefaultWeight = 256

// Demand describes one domain competing for CPU.
type Demand struct {
	// Weight is the credit-scheduler weight (relative share). Values
	// <= 0 are treated as DefaultWeight.
	Weight float64
	// Cap is the hard ceiling in CPU percent (0 = uncapped).
	Cap float64
	// Want is how much CPU percent the domain would consume if
	// unconstrained (its runnable demand).
	Want float64
}

// limit returns the effective ceiling for a demand.
func (d Demand) limit() float64 {
	lim := d.Want
	if lim < 0 {
		lim = 0
	}
	if d.Cap > 0 && d.Cap < lim {
		lim = d.Cap
	}
	return lim
}

// weight returns the effective weight for a demand.
func (d Demand) weight() float64 {
	if d.Weight <= 0 {
		return DefaultWeight
	}
	return d.Weight
}

const epsilon = 1e-9

// Allocate distributes capacity (CPU percent, e.g. 400 for a 4-way
// node) among the given demands. It returns one allocation per
// demand, in order. The allocation is:
//
//   - capped: alloc[i] <= min(Want[i], Cap[i]);
//   - feasible: sum(alloc) <= capacity + epsilon;
//   - work-conserving: if sum of limits >= capacity the full capacity
//     is handed out;
//   - proportionally fair: unsatisfied domains receive capacity in
//     proportion to their weights.
//
// The result and the working mask are carved from scratch when it has
// room for 2·len(demands) values, so a caller that hands the previous
// result back allocates nothing; whatever scratch held is overwritten
// and never read. nil is a valid scratch.
func Allocate(capacity float64, demands []Demand, scratch []float64) []float64 {
	n := len(demands)
	if cap(scratch) < 2*n {
		scratch = make([]float64, 2*n)
	}
	// open[i] is 1 while domain i still wants more and is not capped
	// out, 0 otherwise.
	alloc, open := scratch[:n], scratch[n:2*n]
	clear(alloc)
	if capacity <= 0 || n == 0 {
		return alloc
	}
	remaining := capacity
	nOpen := 0
	for i, d := range demands {
		open[i] = 0
		if d.limit() > epsilon {
			open[i] = 1
			nOpen++
		}
	}
	// Progressive filling: hand each open domain its weighted share of
	// the remaining capacity, clip at its limit, and repeat with the
	// surplus until nothing changes.
	for nOpen > 0 && remaining > epsilon {
		var totalWeight float64
		for i, d := range demands {
			if open[i] != 0 {
				totalWeight += d.weight()
			}
		}
		distributed := 0.0
		saturatedThisRound := false
		for i, d := range demands {
			if open[i] == 0 {
				continue
			}
			share := remaining * d.weight() / totalWeight
			room := d.limit() - alloc[i]
			if share >= room-epsilon {
				share = room
				open[i] = 0
				nOpen--
				saturatedThisRound = true
			}
			alloc[i] += share
			distributed += share
		}
		remaining -= distributed
		if !saturatedThisRound {
			// Everyone took their full proportional share: done.
			break
		}
	}
	return alloc
}

// TotalDemand returns the sum of effective limits — the CPU the
// domains would consume given infinite capacity.
func TotalDemand(demands []Demand) float64 {
	var sum float64
	for _, d := range demands {
		sum += d.limit()
	}
	return sum
}

// Utilization returns the total CPU actually consumed for the given
// capacity and demands (a convenience for power modelling).
func Utilization(capacity float64, demands []Demand) float64 {
	var sum float64
	for _, a := range Allocate(capacity, demands, nil) {
		sum += a
	}
	return sum
}
