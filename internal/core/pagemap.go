package core

import (
	"fmt"
	"slices"
)

// PageAddress is the physical location of a logical array page: which
// storage device process holds it, and at which page index — the paper's
//
//	typedef struct { int device_id; int index; } PageAddress;
type PageAddress struct {
	Device int
	Index  int
}

// PageMap maps logical page-grid coordinates to physical page addresses —
// the paper's PageMap with PhysicalPageAddress(i1,i2,i3). "The PageMap
// describes the array data layout and is crucial in determining the I/O
// patterns of the computation" (§5): experiment E7 measures exactly this.
//
// Every map is one immutable table over a fixed P1×P2×P3 page grid and
// device count: for each page, the chain of addresses that keep its
// copies, primary first — one address for a plain layout, k for a
// replicated one (replica.go), fewer after a Failover dropped dead
// devices. Beside the chains it keeps the nominal replication factor k,
// the per-device capacity requirement, the name, and — for a map a
// migration minted — the moved index the park-and-replay path reads.
// A layout is a rule for filling the table (layouts, tabulate); Failover,
// MigratePages and a stored descriptor hand a table to the same
// constructor (newPageMap). The chains are shared inside the package;
// LocateAll hands out a copy.
type PageMap = *pageTable

type pageTable struct {
	grid
	k    int // nominal replication factor
	ppd  int // capacity requirement: at least one past the highest slot in the table
	name string
	// chains[l] is the live chain of linear page l. A page whose whole
	// chain died keeps its pre-failover chain so operations against it
	// fail typed (ErrMachineDown) instead of panicking.
	chains [][]PageAddress
	// moved maps each migrated copy's pre-flip address to its new home
	// (migration mints only; nil otherwise). The park-and-replay path
	// uses it to re-aim work a fence refused — see relocatedAddr in
	// migrate.go.
	moved map[PageAddress]PageAddress
}

// newPageMap is the one constructor of a page map. The capacity
// requirement grows from the floor ppd to cover every slot the table
// addresses. A layout passes 0; a mutation passes the pre-mutation map's,
// so a later Failover still takes its spare slots from above it.
func newPageMap(g grid, k, ppd int, name string, chains [][]PageAddress, moved map[PageAddress]PageAddress) PageMap {
	for _, chain := range chains {
		for _, addr := range chain {
			ppd = max(ppd, addr.Index+1)
		}
	}
	return &pageTable{grid: g, k: k, ppd: ppd, name: name, chains: chains, moved: moved}
}

// Locate returns the primary address of logical page (p1,p2,p3).
func (m *pageTable) Locate(p1, p2, p3 int) PageAddress { return m.chains[m.linear(p1, p2, p3)][0] }

// LocateAll returns a copy of the page's chain of copies, primary first.
func (m *pageTable) LocateAll(p1, p2, p3 int) []PageAddress { return slices.Clone(m.chain(p1, p2, p3)) }

// chain returns the page's shared chain, which no caller may write into.
func (m *pageTable) chain(p1, p2, p3 int) []PageAddress { return m.chains[m.linear(p1, p2, p3)] }

// table copies the chains, one mutable chain per linear page: what a
// mutation edits before remint.
func (m *pageTable) table() [][]PageAddress {
	t := make([][]PageAddress, len(m.chains))
	for l, chain := range m.chains {
		t[l] = slices.Clone(chain)
	}
	return t
}

// PagesPerDevice returns the per-device capacity the map requires.
func (m *pageTable) PagesPerDevice() int { return m.ppd }

// Replicas returns the nominal replication factor k (chains may be
// shorter after a Failover).
func (m *pageTable) Replicas() int { return m.k }

// Name identifies the layout in experiment tables.
func (m *pageTable) Name() string { return m.name }

// grid carries the shared page-grid geometry.
type grid struct {
	p1, p2, p3 int
	devices    int
}

func (g grid) total() int { return g.p1 * g.p2 * g.p3 }

func (g grid) linear(p1, p2, p3 int) int {
	return (p1*g.p2+p2)*g.p3 + p3
}

func (g grid) check() error {
	if g.p1 <= 0 || g.p2 <= 0 || g.p3 <= 0 {
		return fmt.Errorf("core: invalid page grid %dx%dx%d", g.p1, g.p2, g.p3)
	}
	if g.devices <= 0 {
		return fmt.Errorf("core: page map needs >= 1 device, got %d", g.devices)
	}
	return nil
}

// layout is a named placement rule.
type layout struct {
	name string
	rule func(g grid) func(l int) PageAddress
}

// layouts lists every named layout with its placement rule: given the
// grid, the address of linear page l, asked once per page in order.
var layouts = []layout{
	// roundrobin, the cyclic layout: page l goes to device l mod D.
	// Consecutive pages land on distinct devices, so bulk operations
	// engage every disk — the maximally parallel layout.
	{"roundrobin", func(g grid) func(int) PageAddress {
		return func(l int) PageAddress { return PageAddress{Device: l % g.devices, Index: l / g.devices} }
	}},
	// blocked, the contiguous-chunk layout: device 0 holds the first
	// total/D pages, and so on. Contiguous domains then hit one device at
	// a time — the maximally *serial* layout, the adversarial baseline in
	// experiment E7.
	{"blocked", func(g grid) func(int) PageAddress {
		chunk := (g.total() + g.devices - 1) / g.devices
		return func(l int) PageAddress { return PageAddress{Device: l / chunk, Index: l % chunk} }
	}},
	// striped, the plane-striped layout: plane p1 goes to device p1 mod D.
	// Slab-shaped access along axis 1 parallelizes perfectly; a single
	// plane concentrates on one device. This is the layout a 3D-FFT slab
	// decomposition wants.
	{"striped", func(g grid) func(int) PageAddress {
		plane := g.p2 * g.p3
		return func(l int) PageAddress {
			return PageAddress{Device: l / plane % g.devices, Index: l/plane/g.devices*plane + l%plane}
		}
	}},
	// hash, the pseudo-random layout: pages scatter by a splitmix-style
	// avalanche of the linear index, each device's slots dealt densely in
	// page order. It decorrelates any access pattern from device
	// placement.
	{"hash", func(g grid) func(int) PageAddress {
		dealt := make([]int, g.devices)
		return func(l int) PageAddress {
			d := int(mix64(uint64(l)) % uint64(g.devices))
			dealt[d]++
			return PageAddress{Device: d, Index: dealt[d] - 1}
		}
	}},
}

// tabulate builds the named layout over g: every page's one-address
// chain, cut from one backing slice — one allocation for the table, not
// one per page.
func tabulate(name string, g grid) (PageMap, error) {
	i := slices.IndexFunc(layouts, func(l layout) bool { return l.name == name })
	if i < 0 {
		return nil, fmt.Errorf("core: unknown page map %q", name)
	}
	if err := g.check(); err != nil {
		return nil, err
	}
	addrs, chains := make([]PageAddress, g.total()), make([][]PageAddress, g.total())
	at := layouts[i].rule(g)
	for l := range chains {
		addrs[l] = at(l)
		chains[l] = addrs[l : l+1 : l+1]
	}
	return newPageMap(g, 1, 0, name, chains, nil), nil
}

// NewRoundRobinMap builds the "roundrobin" layout over a P1×P2×P3 page
// grid and devices devices.
func NewRoundRobinMap(p1, p2, p3, devices int) (PageMap, error) {
	return tabulate("roundrobin", grid{p1, p2, p3, devices})
}

// NewStripedMap builds the "striped" layout over a P1×P2×P3 page grid
// and devices devices.
func NewStripedMap(p1, p2, p3, devices int) (PageMap, error) {
	return tabulate("striped", grid{p1, p2, p3, devices})
}

// mix64 is the splitmix64 finalizer: a deterministic avalanche function
// (no math/rand dependency, reproducible across runs).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewPageMap builds a layout by name: "roundrobin", "blocked", "striped"
// or "hash", optionally suffixed "+r<k>" for k-way replication (e.g.
// "striped+r2" — the grammar NewReplicatedMap names its map by). Used by
// the experiment harness and cmd flags.
//
// A map re-minted at runtime (Array.Failover, MigratePages) renders
// "+failover" / "+resharded" markers in its Name, but no name builds its
// table: such names are unknown here, and a descriptor carries the table
// itself (arrayMeta).
func NewPageMap(name string, p1, p2, p3, devices int) (PageMap, error) {
	base, k, replicated := parseReplicaSuffix(name)
	pm, err := tabulate(base, grid{p1, p2, p3, devices})
	if err == nil && replicated {
		pm, err = NewReplicatedMap(pm, k)
	}
	return pm, err
}

// PageMapNames lists the available layouts.
func PageMapNames() []string {
	names := make([]string, len(layouts))
	for i, l := range layouts {
		names[i] = l.name
	}
	return names
}
