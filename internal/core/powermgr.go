package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"energysched/internal/cluster"
	"energysched/internal/vm"
)

// PowerManager decides when to turn nodes off to save power and on to
// absorb load (§III-C). Its inputs are the working-ratio thresholds
// λmin and λmax: when working/online exceeds λmax it boots stopped
// nodes, when the ratio falls below λmin it shuts idle ones down, in
// both cases moving the ratio back to the middle of the band
// (hysteresis, so the fleet does not thrash at a threshold). On top
// of the ratio rule it boots capacity for queued VMs that no online
// node can currently hold — without this a fully-drained datacenter
// would never wake up.
type PowerManager struct {
	// LambdaMin, LambdaMax are the thresholds as fractions in (0, 1].
	LambdaMin, LambdaMax float64
	// MinExec is the minimum number of operative machines (§III-C's
	// minexec parameter).
	MinExec int
	// BootsPerRound caps how many nodes one planning round may turn
	// on (0 = default 1). Real middleware staggers power-on (PDU
	// inrush limits, PXE storms), so capacity trails demand spikes —
	// consolidating policies barely notice, one-job-per-node and
	// random policies queue behind the boot pipeline.
	BootsPerRound int
	// BootInterval is the minimum spacing between boot initiations in
	// seconds (0 = default 90). Together with BootsPerRound it forms
	// the boot pipeline's rate limit.
	BootInterval float64

	lastBoot   float64
	bootedOnce bool

	// Scratch reused across Plan calls, so a round allocates nothing:
	// the online nodes, the returned on/off slices, and the emergency
	// estimate's hypothetical loads (indexed like online), misfits and
	// bins.
	online, on, off    []*cluster.Node
	extraCPU, extraMem []float64
	misfits            []*vm.VM
	bins               []bin
}

// bin is one hypothetical freshly booted node in the emergency
// estimate's first-fit packing.
type bin struct{ cpu, mem float64 }

// NewPowerManager validates thresholds given in percent (30, 90) or
// fractions (0.30, 0.90) — values above 1 are treated as percent.
func NewPowerManager(lambdaMin, lambdaMax float64, minExec int) (*PowerManager, error) {
	if lambdaMin > 1 {
		lambdaMin /= 100
	}
	if lambdaMax > 1 {
		lambdaMax /= 100
	}
	if lambdaMin <= 0 || lambdaMax > 1 || lambdaMin >= lambdaMax {
		return nil, fmt.Errorf("core: need 0 < λmin < λmax <= 1, got %.2f, %.2f", lambdaMin, lambdaMax)
	}
	if minExec < 0 {
		return nil, fmt.Errorf("core: minexec must be non-negative, got %d", minExec)
	}
	return &PowerManager{LambdaMin: lambdaMin, LambdaMax: lambdaMax, MinExec: minExec}, nil
}

// Plan inspects the cluster and queue at virtual time now and returns
// the nodes to turn on and the idle nodes to turn off. The two slices
// are disjoint and the off slice only ever contains Idle nodes. Both
// are the manager's own scratch, valid until the next Plan, and copies
// of the cluster's state index: the caller changes node states while
// it iterates them. Plan reads the index only, so it costs O(online),
// not O(fleet).
func (pm *PowerManager) Plan(now float64, c *cluster.Cluster, queue []*vm.VM) (on, off []*cluster.Node) {
	working, online := c.Counts()
	total := c.Size() - c.StateCount(cluster.Down)

	mid := (pm.LambdaMin + pm.LambdaMax) / 2
	target := online
	switch {
	case online == 0:
		if working > 0 || len(queue) > 0 {
			target = maxInt(pm.MinExec, 1)
		} else {
			target = pm.MinExec
		}
	default:
		ratio := float64(working) / float64(online)
		if ratio > pm.LambdaMax {
			target = int(math.Ceil(float64(working) / mid))
		} else if ratio < pm.LambdaMin {
			target = maxInt(int(math.Ceil(float64(working)/mid)), pm.MinExec)
		}
	}

	// The working-node ratio is blind to overcommit: a drowning node
	// counts once no matter how many VMs starve on it. Watch the
	// reserved-CPU utilization of the online fleet too, and grow the
	// fleet when it passes λmax — for policies that respect the
	// occupation limit the node ratio always triggers first, so this
	// only disciplines overcommitting schedulers.
	pm.online = c.AppendOnline(pm.online[:0])
	var reserved, capacity float64
	for _, n := range pm.online {
		reserved += n.CPUReserved()
		capacity += n.Class.CPU
	}
	utilTarget := 0
	if capacity > 0 && reserved/capacity > pm.LambdaMax {
		avgCap := capacity / float64(online)
		utilTarget = int(math.Ceil(reserved / (pm.LambdaMax * avgCap)))
	}

	// Emergency boost: capacity for queued VMs that cannot be placed
	// on any online node right now *and* whose SLA is already at risk
	// from the wait. These boots bypass the rate limit — the paper's
	// scheduler likewise reacts to SLA violations immediately. This
	// rescue also prevents total-drain deadlock.
	emergency := pm.nodesNeededForQueue(now, c, pm.online, queue)

	target = maxInt(target, working, pm.MinExec)
	if target > total {
		target = total
	}

	boots := 0
	if target > online {
		// Ratio-driven boots go through the rate-limited boot
		// pipeline: real middleware staggers power-on (PDU inrush,
		// PXE storms), so capacity trails demand spikes.
		interval := pm.BootInterval
		if interval <= 0 {
			interval = 90
		}
		if !pm.bootedOnce || now-pm.lastBoot >= interval {
			boots = target - online
			if cap := pm.BootsPerRound; cap <= 0 {
				if boots > 1 {
					boots = 1
				}
			} else if boots > cap {
				boots = cap
			}
		}
	}
	if utilTarget > online && utilTarget > target {
		// Utilization-driven boots (overcommit discipline) skip the
		// time throttle but still trickle one node per round: the
		// reserve pressure persists until the backlog drains, so the
		// fleet keeps growing as long as it is overcommitted.
		if boots < 1 {
			boots = 1
		}
	}
	if emergency > boots {
		boots = emergency
	}
	if boots > 0 {
		pm.on = c.AppendOff(pm.on[:0], boots)
		on = pm.on
		if len(on) > 0 {
			pm.lastBoot = now
			pm.bootedOnce = true
		}
	} else if target < online {
		pm.off = RankOff(c.AppendIdle(pm.off[:0]))
		off = pm.off[:min(online-target, len(pm.off))]
	}
	return on, off
}

// nodesNeededForQueue estimates how many extra nodes must boot for
// the queued VMs that (a) no online node can currently hold and
// (b) would miss their deadline if they kept waiting: it first-fit
// packs those misfits into the best powered-off node profile. online
// is the cluster's On nodes.
func (pm *PowerManager) nodesNeededForQueue(now float64, c *cluster.Cluster, online []*cluster.Node, queue []*vm.VM) int {
	if len(queue) == 0 {
		return 0
	}
	// Find queued VMs with no online home, accounting for each
	// other's hypothetical placements on the current fleet.
	pm.extraCPU = grow(pm.extraCPU, len(online))
	pm.extraMem = grow(pm.extraMem, len(online))
	clear(pm.extraCPU)
	clear(pm.extraMem)
	misfits := pm.misfits[:0]
	for _, v := range queue {
		if !pm.atRisk(now, v) {
			continue
		}
		placed := false
		for i, n := range online {
			if !n.Satisfies(v.Req) {
				continue
			}
			cpu := (n.CPUReserved() + pm.extraCPU[i] + v.Req.CPU) / n.Class.CPU
			mem := 0.0
			if n.Class.Mem > 0 {
				mem = (n.MemReserved() + pm.extraMem[i] + v.Req.Mem) / n.Class.Mem
			}
			if math.Max(cpu, mem) <= 1.0+1e-9 {
				pm.extraCPU[i] += v.Req.CPU
				pm.extraMem[i] += v.Req.Mem
				placed = true
				break
			}
		}
		if !placed {
			misfits = append(misfits, v)
		}
	}
	pm.misfits = misfits[:0]
	if len(misfits) == 0 {
		return 0
	}
	// Pack misfits into fresh node profiles (first-fit decreasing by
	// CPU), using the class of the best boot candidate as the bin
	// (pm.on is free to hold it: Plan fills it only after this).
	pm.on = c.AppendOff(pm.on[:0], 1)
	if len(pm.on) == 0 {
		return 0
	}
	binCPU := pm.on[0].Class.CPU
	binMem := pm.on[0].Class.Mem
	slices.SortFunc(misfits, func(a, b *vm.VM) int { return cmp.Compare(b.Req.CPU, a.Req.CPU) })
	bins := pm.bins[:0]
	for _, v := range misfits {
		placed := false
		for i := range bins {
			if bins[i].cpu+v.Req.CPU <= binCPU && bins[i].mem+v.Req.Mem <= binMem {
				bins[i].cpu += v.Req.CPU
				bins[i].mem += v.Req.Mem
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, bin{v.Req.CPU, v.Req.Mem})
		}
	}
	pm.bins = bins[:0]
	return len(bins)
}

// BoostCreateEstimate is the creation-time estimate used when judging
// whether a queued VM's deadline is at risk (a medium-class Cc).
const BoostCreateEstimate = 40.0

// atRisk reports whether a queued VM would miss its deadline if it
// started right after one more boot cycle: projected completion
// (now + creation + remaining dedicated runtime) past the deadline.
func (pm *PowerManager) atRisk(now float64, v *vm.VM) bool {
	remaining := v.Remaining() / maxF(v.Req.CPU, 1) // seconds at full allocation
	return now+BoostCreateEstimate+remaining > v.Deadline
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
