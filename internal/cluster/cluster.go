package cluster

import (
	"cmp"
	"fmt"
	"slices"
)

// Cluster is the full set of physical nodes in the datacenter.
//
// Beside the node slice it keeps a state index, so that a scheduling
// round costs O(online), not O(fleet): the power manager keeps almost
// the whole fleet Off at scale. The index is updated only where a
// node's state changes — Node.SetState, SetReliability, AddVM/RemoveVM,
// Begin/End{Create,Migrate}, ResetOps — and every reader below
// (Counts, StateCount, AppendOnline, AppendOff, AppendIdle) answers
// from it. CheckIndex recomputes it by sweep for the tests.
type Cluster struct {
	Nodes   []*Node
	classes []Class

	// on holds the On nodes in ascending ID: the solver's column order,
	// and the order every per-node float sum on the round path is
	// taken in, so reports stay byte-identical to a sweep of Nodes.
	on []*Node
	// off holds the Off nodes best boot candidate first (bootOrder), so
	// the power manager takes a prefix instead of ranking the fleet.
	off []*Node
	// booting, down and working count the nodes in those conditions;
	// nobody iterates them.
	booting, down, working int
}

// New materializes a cluster from class descriptions: Count nodes per
// class, IDs assigned in declaration order. The nodes live in one slab
// the cluster owns; Nodes points into it.
func New(classes []Class) (*Cluster, error) {
	c := &Cluster{classes: append([]Class(nil), classes...)}
	size := 0
	for i := range c.classes {
		cl := &c.classes[i]
		if cl.Count <= 0 {
			return nil, fmt.Errorf("cluster: class %q has non-positive count %d", cl.Name, cl.Count)
		}
		if cl.CPU <= 0 || cl.Mem < 0 {
			return nil, fmt.Errorf("cluster: class %q has invalid capacity (cpu=%.1f mem=%.1f)", cl.Name, cl.CPU, cl.Mem)
		}
		if cl.Reliability <= 0 || cl.Reliability > 1 {
			return nil, fmt.Errorf("cluster: class %q reliability %.3f outside (0,1]", cl.Name, cl.Reliability)
		}
		size += cl.Count
	}
	if size == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	slab := make([]Node, size)
	c.Nodes = make([]*Node, size)
	id := 0
	for i := range c.classes {
		for range c.classes[i].Count {
			slab[id] = newNode(id, &c.classes[i])
			slab[id].cluster = c
			c.Nodes[id] = &slab[id]
			id++
		}
	}
	// Every node starts Off: rank the whole fleet once, here.
	c.off = slices.Clone(c.Nodes)
	slices.SortFunc(c.off, bootOrder)
	return c, nil
}

// MustNew is New that panics on error, for tests and literals.
func MustNew(classes []Class) *Cluster {
	c, err := New(classes)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.Nodes) }

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[id]
}

// Counts returns (working, online) node counts: working nodes host at
// least one VM or operation; online nodes are On or Booting (a
// machine consuming boot power counts against the energy budget, so
// the power manager must see it as online). O(1).
func (c *Cluster) Counts() (working, online int) {
	return c.working, len(c.on) + c.booting
}

// StateCount returns the number of nodes in power state s. O(1).
func (c *Cluster) StateCount(s PowerState) int {
	switch s {
	case Off:
		return len(c.off)
	case Booting:
		return c.booting
	case On:
		return len(c.on)
	case Down:
		return c.down
	}
	return 0
}

// OnlineNodes returns the operational (On) nodes in ascending ID.
func (c *Cluster) OnlineNodes() []*Node {
	return c.AppendOnline(nil)
}

// AppendOnline appends the operational (On) nodes to buf in ascending
// ID and returns it — the allocation-free variant of OnlineNodes for
// hot paths that keep a scratch buffer. The result is a copy: the
// caller may change node states while iterating it.
func (c *Cluster) AppendOnline(buf []*Node) []*Node {
	return append(buf, c.on...)
}

// OffNodes returns the powered-off (and not failed) nodes, best boot
// candidate first (see AppendOff).
func (c *Cluster) OffNodes() []*Node {
	return c.AppendOff(nil, len(c.off))
}

// AppendOff appends the first k powered-off nodes in descending
// turn-on preference — reliable, fast-booting, fast classes first
// (§III-C: "the nodes to be turned on are selected according to a
// number of parameters, including its reliability, boot time, etc."),
// ties by ascending ID — and returns buf. The result is a copy:
// booting a node removes it from the index the caller would otherwise
// be iterating.
func (c *Cluster) AppendOff(buf []*Node, k int) []*Node {
	return append(buf, c.off[:min(k, len(c.off))]...)
}

// IdleNodes returns online nodes hosting nothing, in ascending ID.
func (c *Cluster) IdleNodes() []*Node {
	return c.AppendIdle(nil)
}

// AppendIdle is the scratch-buffer variant of IdleNodes.
func (c *Cluster) AppendIdle(buf []*Node) []*Node {
	for _, n := range c.on {
		if n.Idle() {
			buf = append(buf, n)
		}
	}
	return buf
}

// bootKey is the turn-on preference of a powered-off node: lower
// boots sooner.
func bootKey(n *Node) float64 {
	return n.Class.BootTime + n.Class.CreateCost + 200*(1-n.Reliability)
}

// bootOrder is the total order of the off index: bootKey, then ID.
func bootOrder(a, b *Node) int {
	if c := cmp.Compare(bootKey(a), bootKey(b)); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func byID(a, b *Node) int { return cmp.Compare(a.ID, b.ID) }

// enter adds n to the index under its current power state; leave
// removes it. Node.SetState and SetReliability bracket the field
// write with the pair, so leave still sees the keys n was filed under.
func (c *Cluster) enter(n *Node) {
	switch n.State {
	case On:
		i, _ := slices.BinarySearchFunc(c.on, n, byID)
		c.on = slices.Insert(c.on, i, n)
	case Off:
		i, _ := slices.BinarySearchFunc(c.off, n, bootOrder)
		c.off = slices.Insert(c.off, i, n)
	case Booting:
		c.booting++
	case Down:
		c.down++
	}
}

func (c *Cluster) leave(n *Node) {
	switch n.State {
	case On:
		c.on = remove(c.on, n, byID)
	case Off:
		c.off = remove(c.off, n, bootOrder)
	case Booting:
		c.booting--
	case Down:
		c.down--
	}
}

// remove deletes n from a set ordered by order. Not finding it means a
// field the order is keyed on was written around its setter.
func remove(set []*Node, n *Node, order func(a, b *Node) int) []*Node {
	i, found := slices.BinarySearchFunc(set, n, order)
	if !found {
		panic(fmt.Sprintf("cluster: node %d is not where the state index filed it", n.ID))
	}
	return slices.Delete(set, i, i+1)
}

// CheckIndex recomputes the state index by a sweep of Nodes and
// reports the first disagreement. It is the test oracle for the
// transition-maintained index; nothing on the round path calls it.
func (c *Cluster) CheckIndex() error {
	var on, off, booting, down, working int
	for i, n := range c.Nodes {
		if n.ID != i || n.cluster != c {
			return fmt.Errorf("cluster: node at %d has id %d or a foreign owner", i, n.ID)
		}
		switch n.State {
		case On:
			if on >= len(c.on) || c.on[on] != n {
				return fmt.Errorf("cluster: on index position %d is not node %d", on, n.ID)
			}
			on++
		case Off:
			off++
		case Booting:
			booting++
		case Down:
			down++
		}
		if n.Working() {
			working++
		}
	}
	if on != len(c.on) || off != len(c.off) || booting != c.booting || down != c.down || working != c.working {
		return fmt.Errorf("cluster: index counts on=%d off=%d booting=%d down=%d working=%d, sweep %d %d %d %d %d",
			len(c.on), len(c.off), c.booting, c.down, c.working, on, off, booting, down, working)
	}
	// As many entries as the sweep found Off nodes, each of them Off
	// and strictly after its predecessor: the off index is exactly the
	// sweep's set in bootOrder.
	for i, n := range c.off {
		if n.State != Off {
			return fmt.Errorf("cluster: off index holds node %d in state %s", n.ID, n.State)
		}
		if i > 0 && bootOrder(c.off[i-1], n) >= 0 {
			return fmt.Errorf("cluster: off index out of order at %d (nodes %d, %d)", i, c.off[i-1].ID, n.ID)
		}
	}
	return nil
}

// TotalCPU returns aggregate CPU capacity of all nodes (percent).
func (c *Cluster) TotalCPU() float64 {
	var sum float64
	for _, n := range c.Nodes {
		sum += n.Class.CPU
	}
	return sum
}
