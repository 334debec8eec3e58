package collection

import "fmt"

// Distribution describes how a collection's members are laid out over
// the machines of a cluster — the member-placement analogue of
// core.PageMap's data layouts. A descriptor is a value: it can be
// built and inspected before anything is spawned.
type Distribution struct {
	layout   string // "block" | "cyclic" | "explicit"
	members  int
	machines int   // machine pool size (block/cyclic)
	explicit []int // explicit machine list (explicit layout)
}

// Block lays members out in contiguous runs: the first ceil(members/
// machines) members on machine 0, and so on — the blocked page layout,
// for members. Consecutive members share machines, minimizing the set of
// machines a Slice view touches.
func Block(members, machines int) Distribution {
	return Distribution{layout: "block", members: members, machines: machines}
}

// Cyclic deals members to machines round-robin: member i on machine
// i mod machines — the round-robin page layout, for members. Consecutive
// members land on distinct machines, maximizing the parallelism of a
// broadcast window.
func Cyclic(members, machines int) Distribution {
	return Distribution{layout: "cyclic", members: members, machines: machines}
}

// OnMachines places one member per listed machine, in order — the
// explicit layout used when the caller already owns the placement
// decision (e.g. one storage device per machine of a fixed list).
func OnMachines(machines ...int) Distribution {
	explicit := make([]int, len(machines))
	copy(explicit, machines)
	return Distribution{layout: "explicit", members: len(explicit), machines: len(explicit), explicit: explicit}
}

// Size returns the member count.
func (d Distribution) Size() int { return d.members }

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
	return nil
}

// MachineFor returns the machine of member s in [0, Size()).
func (d Distribution) MachineFor(s int) int {
	switch d.layout {
	case "cyclic":
		return s % d.machines
	case "explicit":
		return d.explicit[s]
	default: // "block"
		chunk := (d.members + d.machines - 1) / d.machines
		return s / chunk
	}
}

// MachineList materializes the full member -> machine assignment.
func (d Distribution) MachineList() []int {
	out := make([]int, d.Size())
	for s := range out {
		out[s] = d.MachineFor(s)
	}
	return out
}
