package collection

import "fmt"

// Distribution describes how a collection's members are laid out over
// the machines of a cluster — the member-placement analogue of
// core.PageMap's data layouts. A descriptor is a value: it can be
// built, derived (Replicate) and inspected before anything is spawned.
//
// A distribution places Members() logical members; with a replication
// factor R > 1 the spawned collection holds Members()*R member slots,
// laid out replica-major: slots [r*Members(), (r+1)*Members()) are
// replica r, so Collection.Slice carves out one replica, and replica r
// of logical member l lives on the machine pool rotated by r (distinct
// machines per replica whenever R <= machine count).
type Distribution struct {
	layout   string // "block" | "cyclic" | "explicit"
	members  int    // logical members
	machines int    // machine pool size (block/cyclic)
	explicit []int  // explicit machine list (explicit layout)
	replicas int    // >= 1
}

// Block lays members out in contiguous runs: the first ceil(members/
// machines) members on machine 0, and so on — the blocked page layout,
// for members. Consecutive members share machines, minimizing the set of
// machines a Slice view touches.
func Block(members, machines int) Distribution {
	return Distribution{layout: "block", members: members, machines: machines, replicas: 1}
}

// Cyclic deals members to machines round-robin: member i on machine
// i mod machines — the round-robin page layout, for members. Consecutive
// members land on distinct machines, maximizing the parallelism of a
// broadcast window.
func Cyclic(members, machines int) Distribution {
	return Distribution{layout: "cyclic", members: members, machines: machines, replicas: 1}
}

// OnMachines places one member per listed machine, in order — the
// explicit layout used when the caller already owns the placement
// decision (e.g. one storage device per machine of a fixed list).
func OnMachines(machines ...int) Distribution {
	explicit := make([]int, len(machines))
	copy(explicit, machines)
	return Distribution{layout: "explicit", members: len(explicit), machines: len(explicit), explicit: explicit, replicas: 1}
}

// Replicate derives a distribution spawning k replicas of every logical
// member (k >= 1), replica-major. Replica r is placed on the machine
// pool rotated by r, so replicas of one member land on distinct
// machines whenever k does not exceed the pool size.
func (d Distribution) Replicate(k int) Distribution {
	d.replicas = k
	return d
}

// Members returns the number of logical members.
func (d Distribution) Members() int { return d.members }

// Replicas returns the replication factor.
func (d Distribution) Replicas() int { return d.replicas }

// Size returns the total member-slot count: Members() * Replicas().
func (d Distribution) Size() int { return d.members * d.replicas }

// Name identifies the layout ("block", "cyclic", "explicit").
func (d Distribution) Name() string { return d.layout }

// Validate checks the descriptor is spawnable.
func (d Distribution) Validate() error {
	if d.layout == "" {
		return fmt.Errorf("collection: zero distribution (use Block, Cyclic or OnMachines)")
	}
	if d.members <= 0 {
		return fmt.Errorf("collection: distribution needs >= 1 member, got %d", d.members)
	}
	if d.machines <= 0 {
		return fmt.Errorf("collection: distribution needs >= 1 machine, got %d", d.machines)
	}
	if d.replicas < 1 {
		return fmt.Errorf("collection: replication factor %d < 1", d.replicas)
	}
	if d.replicas > d.machines {
		return fmt.Errorf("collection: %d replicas over %d machines cannot be machine-disjoint", d.replicas, d.machines)
	}
	return nil
}

// MachineFor returns the machine of member slot s in [0, Size()).
func (d Distribution) MachineFor(s int) int {
	replica := s / d.members
	logical := s % d.members
	switch d.layout {
	case "cyclic":
		return (logical + replica) % d.machines
	case "explicit":
		return d.explicit[(logical+replica)%len(d.explicit)]
	default: // "block"
		chunk := (d.members + d.machines - 1) / d.machines
		return (logical/chunk + replica) % d.machines
	}
}

// MachineList materializes the full slot -> machine assignment.
func (d Distribution) MachineList() []int {
	out := make([]int, d.Size())
	for s := range out {
		out[s] = d.MachineFor(s)
	}
	return out
}
