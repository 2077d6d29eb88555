package xen

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestAllocateUndercommitted(t *testing.T) {
	// Everyone fits: each domain gets exactly its demand.
	alloc := Allocate(400, []Demand{
		{Want: 100}, {Want: 150}, {Want: 50},
	}, nil)
	for i, want := range []float64{100, 150, 50} {
		if !almostEq(alloc[i], want) {
			t.Fatalf("alloc[%d] = %v, want %v", i, alloc[i], want)
		}
	}
}

func TestAllocateEqualWeightsOvercommitted(t *testing.T) {
	// 8 × 100% on 400%: equal weights → 50% each.
	demands := make([]Demand, 8)
	for i := range demands {
		demands[i] = Demand{Want: 100}
	}
	alloc := Allocate(400, demands, nil)
	for i, a := range alloc {
		if !almostEq(a, 50) {
			t.Fatalf("alloc[%d] = %v, want 50", i, a)
		}
	}
}

func TestAllocateWeightedShares(t *testing.T) {
	// Weight 512 vs 256 on a saturated node: 2:1 split.
	alloc := Allocate(300, []Demand{
		{Weight: 512, Want: 400},
		{Weight: 256, Want: 400},
	}, nil)
	if !almostEq(alloc[0], 200) || !almostEq(alloc[1], 100) {
		t.Fatalf("weighted alloc = %v, want [200 100]", alloc)
	}
}

func TestAllocateCapRespected(t *testing.T) {
	alloc := Allocate(400, []Demand{
		{Want: 400, Cap: 150},
		{Want: 400},
	}, nil)
	if alloc[0] > 150+1e-9 {
		t.Fatalf("cap violated: %v", alloc[0])
	}
	// Work conserving: the rest goes to the uncapped domain.
	if !almostEq(alloc[1], 250) {
		t.Fatalf("surplus not redistributed: %v", alloc)
	}
}

func TestAllocateSurplusRedistribution(t *testing.T) {
	// A small domain leaves surplus that big domains split by weight.
	alloc := Allocate(400, []Demand{
		{Want: 40},
		{Want: 400},
		{Want: 400},
	}, nil)
	if !almostEq(alloc[0], 40) {
		t.Fatalf("small domain should be satisfied, got %v", alloc[0])
	}
	if !almostEq(alloc[1], 180) || !almostEq(alloc[2], 180) {
		t.Fatalf("surplus split = %v, want [40 180 180]", alloc)
	}
}

func TestAllocateZeroCapacity(t *testing.T) {
	alloc := Allocate(0, []Demand{{Want: 100}}, nil)
	if alloc[0] != 0 {
		t.Fatalf("zero capacity allocated %v", alloc[0])
	}
}

func TestAllocateEmpty(t *testing.T) {
	if got := Allocate(400, nil, nil); len(got) != 0 {
		t.Fatalf("empty demands returned %v", got)
	}
}

func TestAllocateDefaultWeight(t *testing.T) {
	// Weight 0 and weight 256 (the default) behave identically.
	a := Allocate(100, []Demand{{Want: 100}, {Want: 100}}, nil)
	b := Allocate(100, []Demand{{Weight: 256, Want: 100}, {Weight: 256, Want: 100}}, nil)
	for i := range a {
		if !almostEq(a[i], b[i]) {
			t.Fatalf("default weight mismatch: %v vs %v", a, b)
		}
	}
}

func TestTotalDemand(t *testing.T) {
	got := TotalDemand([]Demand{
		{Want: 100},
		{Want: 400, Cap: 200},
		{Want: -5},
	})
	if !almostEq(got, 300) {
		t.Fatalf("TotalDemand = %v, want 300", got)
	}
}

func TestUtilization(t *testing.T) {
	got := Utilization(400, []Demand{{Want: 100}, {Want: 500, Cap: 200}})
	if !almostEq(got, 300) {
		t.Fatalf("Utilization = %v, want 300", got)
	}
}

// quick properties: for arbitrary demand sets the allocation is
// feasible, capped, work-conserving, and fair.
type quickDemands struct {
	weights []uint8
	wants   []uint16
	caps    []uint16
}

func demandsFrom(weights []uint8, wants, caps []uint16) []Demand {
	n := len(weights)
	if len(wants) < n {
		n = len(wants)
	}
	if len(caps) < n {
		n = len(caps)
	}
	out := make([]Demand, 0, n)
	for i := 0; i < n; i++ {
		d := Demand{
			Weight: float64(weights[i]),
			Want:   float64(wants[i] % 800),
		}
		if caps[i]%3 == 0 { // only some domains are capped
			d.Cap = float64(caps[i] % 500)
		}
		out = append(out, d)
	}
	return out
}

func TestAllocateFeasibleProperty(t *testing.T) {
	f := func(weights []uint8, wants, caps []uint16, capRaw uint16) bool {
		capacity := float64(capRaw % 1600)
		demands := demandsFrom(weights, wants, caps)
		alloc := Allocate(capacity, demands, nil)
		var sum float64
		for i, a := range alloc {
			if a < -1e-9 {
				return false // no negative allocations
			}
			if a > demands[i].limit()+1e-6 {
				return false // cap/demand respected
			}
			sum += a
		}
		if sum > capacity+1e-6 {
			return false // feasible
		}
		// Work conserving: min(capacity, total limit) is handed out.
		want := math.Min(capacity, TotalDemand(demands))
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateFairnessProperty(t *testing.T) {
	// If two domains have identical weight/want/cap they receive the
	// same allocation.
	f := func(weight uint8, want, capRaw uint16, fillers []uint16) bool {
		d := Demand{Weight: float64(weight), Want: float64(want % 800)}
		demands := []Demand{d, d}
		for _, w := range fillers {
			demands = append(demands, Demand{Want: float64(w % 400)})
		}
		alloc := Allocate(float64(capRaw%1600), demands, nil)
		return math.Abs(alloc[0]-alloc[1]) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateMonotoneInWeight(t *testing.T) {
	// On a saturated node, a higher-weight domain never receives less
	// than a lower-weight one with the same demand.
	f := func(w1, w2 uint8, fillers []uint16) bool {
		if w1 == 0 || w2 == 0 {
			return true
		}
		demands := []Demand{
			{Weight: float64(w1), Want: 400},
			{Weight: float64(w2), Want: 400},
		}
		for _, w := range fillers {
			demands = append(demands, Demand{Want: float64(w%400) + 1})
		}
		alloc := Allocate(400, demands, nil)
		if w1 >= w2 {
			return alloc[0] >= alloc[1]-1e-6
		}
		return alloc[1] >= alloc[0]-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// allocateReference is the allocator as it was before it wrote into
// caller scratch — a fresh result slice and a fresh bool mask per call —
// kept as the oracle for the float operation order.
func allocateReference(capacity float64, demands []Demand) []float64 {
	alloc := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	remaining := capacity
	active := make([]bool, len(demands))
	nActive := 0
	for i, d := range demands {
		if d.limit() > epsilon {
			active[i] = true
			nActive++
		}
	}
	for nActive > 0 && remaining > epsilon {
		var totalWeight float64
		for i, d := range demands {
			if active[i] {
				totalWeight += d.weight()
			}
		}
		distributed := 0.0
		saturated := false
		for i, d := range demands {
			if !active[i] {
				continue
			}
			share := remaining * d.weight() / totalWeight
			room := d.limit() - alloc[i]
			if share >= room-epsilon {
				share = room
				active[i] = false
				nActive--
				saturated = true
			}
			alloc[i] += share
			distributed += share
		}
		remaining -= distributed
		if !saturated {
			break
		}
	}
	return alloc
}

func TestAllocateScratchIsBitIdentical(t *testing.T) {
	// Whatever the scratch holds and however long it is, the result is
	// the one a nil scratch gives, and both are the reference's, bit for
	// bit: reusing the buffer can never move a completion ETA.
	f := func(weights []uint8, wants, caps []uint16, capRaw uint16, dirt []float64, extra uint8) bool {
		capacity := float64(capRaw % 1600)
		demands := demandsFrom(weights, wants, caps)
		scratch := make([]float64, 2*len(demands)+int(extra))
		for i := range scratch {
			scratch[i] = math.NaN()
			if len(dirt) > 0 {
				scratch[i] = dirt[i%len(dirt)]
			}
		}
		want := allocateReference(capacity, demands)
		fresh := Allocate(capacity, demands, nil)
		reused := Allocate(capacity, demands, scratch[:int(extra)%(len(scratch)+1)])
		if len(fresh) != len(want) || len(reused) != len(want) {
			return false
		}
		for i := range want {
			if math.Float64bits(fresh[i]) != math.Float64bits(want[i]) ||
				math.Float64bits(reused[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return len(demands) == 0 || &reused[0] == &scratch[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateIntoScratchDoesNotAllocate(t *testing.T) {
	demands := []Demand{{Want: 100}, {Weight: 512, Want: 400}, {Want: 400, Cap: 150}, {Want: 30}}
	var scratch []float64
	allocs := testing.AllocsPerRun(100, func() {
		scratch = Allocate(400, demands, scratch)
	})
	if allocs != 0 {
		t.Fatalf("Allocate into its previous result: %v allocs/run, want 0", allocs)
	}
}
