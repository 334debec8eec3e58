package core

import "fmt"

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
// A PageMap is constructed for a fixed page grid (P1×P2×P3 pages) and
// device count; Locate must be a total injective function into
// [0,Devices) × [0,PagesPerDevice).
type PageMap interface {
	// Locate returns the physical address of logical page (p1,p2,p3).
	Locate(p1, p2, p3 int) PageAddress
	// Devices returns the number of devices the map spreads over.
	Devices() int
	// PagesPerDevice returns the per-device capacity the map requires.
	PagesPerDevice() int
	// Name identifies the layout in experiment tables.
	Name() string
}

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

// roundRobinMap deals consecutive pages to devices cyclically: page l
// goes to device l mod D. Consecutive pages land on distinct devices, so
// bulk operations engage every disk — the maximally parallel layout.
type roundRobinMap struct{ grid }

// NewRoundRobinMap builds the cyclic layout over a P1×P2×P3 page grid and
// devices devices.
func NewRoundRobinMap(p1, p2, p3, devices int) (PageMap, error) {
	g := grid{p1, p2, p3, devices}
	if err := g.check(); err != nil {
		return nil, err
	}
	return &roundRobinMap{g}, nil
}

func (m *roundRobinMap) Locate(p1, p2, p3 int) PageAddress {
	l := m.linear(p1, p2, p3)
	return PageAddress{Device: l % m.devices, Index: l / m.devices}
}

func (m *roundRobinMap) Devices() int { return m.devices }

func (m *roundRobinMap) PagesPerDevice() int {
	return (m.total() + m.devices - 1) / m.devices
}

func (m *roundRobinMap) Name() string { return "roundrobin" }

// blockedMap stores contiguous runs of pages on each device: device 0
// holds the first total/D pages, and so on. Contiguous domains then hit
// one device at a time — the maximally *serial* layout, the adversarial
// baseline in experiment E7.
type blockedMap struct {
	grid
	chunk int
}

// NewBlockedMap builds the contiguous-chunk layout.
func NewBlockedMap(p1, p2, p3, devices int) (PageMap, error) {
	g := grid{p1, p2, p3, devices}
	if err := g.check(); err != nil {
		return nil, err
	}
	chunk := (g.total() + devices - 1) / devices
	return &blockedMap{grid: g, chunk: chunk}, nil
}

func (m *blockedMap) Locate(p1, p2, p3 int) PageAddress {
	l := m.linear(p1, p2, p3)
	return PageAddress{Device: l / m.chunk, Index: l % m.chunk}
}

func (m *blockedMap) Devices() int { return m.devices }

func (m *blockedMap) PagesPerDevice() int { return m.chunk }

func (m *blockedMap) Name() string { return "blocked" }

// stripedMap assigns pages by their first-axis coordinate: plane p1 goes
// to device p1 mod D. Slab-shaped access along axis 1 parallelizes
// perfectly; a single plane concentrates on one device. This is the
// layout a 3D-FFT slab decomposition wants.
type stripedMap struct{ grid }

// NewStripedMap builds the plane-striped layout.
func NewStripedMap(p1, p2, p3, devices int) (PageMap, error) {
	g := grid{p1, p2, p3, devices}
	if err := g.check(); err != nil {
		return nil, err
	}
	return &stripedMap{g}, nil
}

func (m *stripedMap) Locate(p1, p2, p3 int) PageAddress {
	return PageAddress{
		Device: p1 % m.devices,
		Index:  (p1/m.devices)*m.p2*m.p3 + p2*m.p3 + p3,
	}
}

func (m *stripedMap) Devices() int { return m.devices }

func (m *stripedMap) PagesPerDevice() int {
	planes := (m.p1 + m.devices - 1) / m.devices
	return planes * m.p2 * m.p3
}

func (m *stripedMap) Name() string { return "striped" }

// hashMap scatters pages pseudo-randomly (splitmix-style avalanche on the
// linear index), precomputing a dense per-device index assignment. It
// decorrelates any access pattern from device placement at the cost of an
// O(total) table.
type hashMap struct {
	grid
	addr   []PageAddress
	perDev int
}

// NewHashMap builds the pseudo-random layout.
func NewHashMap(p1, p2, p3, devices int) (PageMap, error) {
	g := grid{p1, p2, p3, devices}
	if err := g.check(); err != nil {
		return nil, err
	}
	total := g.total()
	m := &hashMap{grid: g, addr: make([]PageAddress, total)}
	counts := make([]int, devices)
	for l := 0; l < total; l++ {
		d := int(mix64(uint64(l)) % uint64(devices))
		m.addr[l] = PageAddress{Device: d, Index: counts[d]}
		counts[d]++
	}
	for _, c := range counts {
		if c > m.perDev {
			m.perDev = c
		}
	}
	if m.perDev == 0 {
		m.perDev = 1
	}
	return m, nil
}

// mix64 is the splitmix64 finalizer: a deterministic avalanche function
// (no math/rand dependency, reproducible across runs).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *hashMap) Locate(p1, p2, p3 int) PageAddress {
	return m.addr[m.linear(p1, p2, p3)]
}

func (m *hashMap) Devices() int { return m.devices }

func (m *hashMap) PagesPerDevice() int { return m.perDev }

func (m *hashMap) Name() string { return "hash" }

// NewPageMap builds a layout by name: "roundrobin", "blocked", "striped"
// or "hash", optionally suffixed "+r<k>" for k-way replication (e.g.
// "striped+r2" — the grammar ReplicatedMap.Name renders, so published
// replicated arrays reopen with their replication factor intact). Used
// by the experiment harness, checkpoint reopen, and cmd flags.
//
// A map re-minted at runtime (Array.Failover, MigratePages) renders
// "+failover" / "+resharded" markers in its Name, but it is a per-page
// table and no name builds it: such names are unknown here, and a
// descriptor carries the table itself (arrayMeta).
func NewPageMap(name string, p1, p2, p3, devices int) (PageMap, error) {
	base, k, replicated := parseReplicaSuffix(name)
	var (
		pm  PageMap
		err error
	)
	switch base {
	case "roundrobin":
		pm, err = NewRoundRobinMap(p1, p2, p3, devices)
	case "blocked":
		pm, err = NewBlockedMap(p1, p2, p3, devices)
	case "striped":
		pm, err = NewStripedMap(p1, p2, p3, devices)
	case "hash":
		pm, err = NewHashMap(p1, p2, p3, devices)
	default:
		return nil, fmt.Errorf("core: unknown page map %q", name)
	}
	if err == nil && replicated {
		pm, err = NewReplicatedMap(pm, k)
	}
	return pm, err
}

// PageMapNames lists the available layouts.
func PageMapNames() []string {
	return []string{"roundrobin", "blocked", "striped", "hash"}
}
