package core

import (
	"fmt"
	"testing"
	"testing/quick"
)

func allMaps(t *testing.T, p1, p2, p3, devices int) []PageMap {
	t.Helper()
	maps := make([]PageMap, 0, 4)
	for _, name := range PageMapNames() {
		m, err := NewPageMap(name, p1, p2, p3, devices)
		if err != nil {
			t.Fatalf("NewPageMap(%s): %v", name, err)
		}
		maps = append(maps, m)
	}
	return maps
}

// checkMapInvariants verifies the PageMap contract: total, injective,
// within bounds.
func checkMapInvariants(m PageMap, p1, p2, p3 int) error {
	seen := make(map[PageAddress]bool)
	for i := 0; i < p1; i++ {
		for j := 0; j < p2; j++ {
			for k := 0; k < p3; k++ {
				a := m.Locate(i, j, k)
				if a.Device < 0 || a.Device >= m.Devices() {
					return fmt.Errorf("%s: page (%d,%d,%d) -> device %d out of [0,%d)", m.Name(), i, j, k, a.Device, m.Devices())
				}
				if a.Index < 0 || a.Index >= m.PagesPerDevice() {
					return fmt.Errorf("%s: page (%d,%d,%d) -> index %d out of [0,%d)", m.Name(), i, j, k, a.Index, m.PagesPerDevice())
				}
				if seen[a] {
					return fmt.Errorf("%s: address (%d,%d) assigned twice", m.Name(), a.Device, a.Index)
				}
				seen[a] = true
			}
		}
	}
	return nil
}

func TestPageMapInvariantsFixed(t *testing.T) {
	cases := []struct{ p1, p2, p3, d int }{
		{1, 1, 1, 1},
		{4, 4, 4, 8},
		{8, 2, 2, 3},  // non-dividing device count
		{5, 3, 7, 4},  // odd everything
		{16, 1, 1, 4}, // degenerate axes
		{2, 2, 2, 16}, // more devices than pages
	}
	for _, c := range cases {
		for _, m := range allMaps(t, c.p1, c.p2, c.p3, c.d) {
			if err := checkMapInvariants(m, c.p1, c.p2, c.p3); err != nil {
				t.Errorf("grid %dx%dx%d/%d: %v", c.p1, c.p2, c.p3, c.d, err)
			}
		}
	}
}

// Property: for random geometries every layout satisfies the contract.
func TestQuickPageMapInvariants(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p1 := int(a%6) + 1
		p2 := int(b%6) + 1
		p3 := int(c%6) + 1
		dev := int(d%8) + 1
		for _, name := range PageMapNames() {
			m, err := NewPageMap(name, p1, p2, p3, dev)
			if err != nil {
				return false
			}
			if err := checkMapInvariants(m, p1, p2, p3); err != nil {
				t.Logf("%v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinSpreadsConsecutivePages(t *testing.T) {
	m, err := NewRoundRobinMap(4, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a := m.Locate(i, 0, 0); a.Device != i {
			t.Errorf("page %d on device %d, want %d", i, a.Device, i)
		}
	}
}

func TestBlockedConcentratesRuns(t *testing.T) {
	m, err := NewBlockedMap(8, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a := m.Locate(i, 0, 0); a.Device != 0 {
			t.Errorf("page %d on device %d, want 0", i, a.Device)
		}
	}
	for i := 4; i < 8; i++ {
		if a := m.Locate(i, 0, 0); a.Device != 1 {
			t.Errorf("page %d on device %d, want 1", i, a.Device)
		}
	}
}

func TestStripedAssignsByPlane(t *testing.T) {
	m, err := NewStripedMap(6, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for p1 := 0; p1 < 6; p1++ {
		for p2 := 0; p2 < 2; p2++ {
			for p3 := 0; p3 < 2; p3++ {
				if a := m.Locate(p1, p2, p3); a.Device != p1%3 {
					t.Errorf("plane %d on device %d", p1, a.Device)
				}
			}
		}
	}
}

func TestHashIsDeterministic(t *testing.T) {
	m1, _ := NewHashMap(4, 4, 4, 5)
	m2, _ := NewHashMap(4, 4, 4, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				if m1.Locate(i, j, k) != m2.Locate(i, j, k) {
					t.Fatalf("hash map not deterministic at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestPageMapErrors(t *testing.T) {
	if _, err := NewPageMap("mystery", 2, 2, 2, 2); err == nil {
		t.Error("unknown layout accepted")
	}
	for _, name := range PageMapNames() {
		if _, err := NewPageMap(name, 0, 2, 2, 2); err == nil {
			t.Errorf("%s: zero grid accepted", name)
		}
		if _, err := NewPageMap(name, 2, 2, 2, 0); err == nil {
			t.Errorf("%s: zero devices accepted", name)
		}
	}
}

// TestPageMapRoundTrip pins the NewPageMap/PageMapNames contract: every
// registered name constructs a map that reports that name, locates every
// page of an uneven grid in bounds, and whose PagesPerDevice is
// consistent with the actual Locate fan-out — the per-device index
// ranges are dense enough that no device needs more capacity than
// PagesPerDevice promises, and at least one device uses the top index.
func TestPageMapRoundTrip(t *testing.T) {
	const p1, p2, p3, devices = 3, 5, 7, 4 // uneven everything
	for _, name := range PageMapNames() {
		m, err := NewPageMap(name, p1, p2, p3, devices)
		if err != nil {
			t.Fatalf("NewPageMap(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("map %q round-trips as %q", name, m.Name())
		}
		if m.Devices() != devices {
			t.Errorf("%s: Devices = %d, want %d", name, m.Devices(), devices)
		}
		maxIdx := make([]int, devices)
		for i := range maxIdx {
			maxIdx[i] = -1
		}
		perDev := make([]int, devices)
		for i := 0; i < p1; i++ {
			for j := 0; j < p2; j++ {
				for k := 0; k < p3; k++ {
					a := m.Locate(i, j, k)
					if a.Device < 0 || a.Device >= devices {
						t.Fatalf("%s: page (%d,%d,%d) on device %d of %d", name, i, j, k, a.Device, devices)
					}
					if a.Index < 0 || a.Index >= m.PagesPerDevice() {
						t.Fatalf("%s: page (%d,%d,%d) at index %d outside [0,%d)", name, i, j, k, a.Index, m.PagesPerDevice())
					}
					perDev[a.Device]++
					if a.Index > maxIdx[a.Device] {
						maxIdx[a.Device] = a.Index
					}
				}
			}
		}
		// PagesPerDevice must be tight against the fan-out: some device
		// actually uses index PagesPerDevice-1 (no over-claimed
		// capacity), and no device holds more pages than promised.
		top := 0
		for d := 0; d < devices; d++ {
			if perDev[d] > m.PagesPerDevice() {
				t.Errorf("%s: device %d holds %d pages, PagesPerDevice is %d", name, d, perDev[d], m.PagesPerDevice())
			}
			if maxIdx[d]+1 > top {
				top = maxIdx[d] + 1
			}
		}
		if top != m.PagesPerDevice() {
			t.Errorf("%s: max used index+1 = %d, PagesPerDevice = %d", name, top, m.PagesPerDevice())
		}
	}
}

// TestMutatedNameRejected: the "+failover"/"+resharded" markers a re-minted
// map renders in its Name() name a per-page table, which no name can
// rebuild — NewPageMap refuses every composition of them (single,
// repeated, interleaved, before or after "+r<k>") instead of handing
// back the nominal layout under an alias. Plain names are undisturbed.
func TestMutatedNameRejected(t *testing.T) {
	const p1, p2, p3, devices = 3, 5, 7, 4
	suffixes := []string{
		"+failover",
		"+resharded",
		"+resharded+resharded",
		"+failover+resharded",
		"+resharded+failover",
		"+failover+resharded+failover",
	}
	for _, base := range PageMapNames() {
		for _, nominal := range []string{base, base + "+r2"} {
			if m, err := NewPageMap(nominal, p1, p2, p3, devices); err != nil || m.Name() != nominal {
				t.Errorf("unmutated name %q disturbed: %v, %v", nominal, m, err)
			}
			for _, suf := range suffixes {
				if m, err := NewPageMap(nominal+suf, p1, p2, p3, devices); err == nil {
					t.Errorf("NewPageMap(%q) built %q: a table has no name", nominal+suf, m.Name())
				}
			}
		}
		if m, err := NewPageMap(base+"+resharded+r2", p1, p2, p3, devices); err == nil {
			t.Errorf("NewPageMap(%q) built %q", base+"+resharded+r2", m.Name())
		}
	}
}

func TestPageMapNamesComplete(t *testing.T) {
	names := PageMapNames()
	if len(names) != 4 {
		t.Fatalf("expected 4 layouts, got %v", names)
	}
	for _, n := range names {
		m, err := NewPageMap(n, 2, 2, 2, 2)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if m.Name() != n {
			t.Errorf("map %q reports name %q", n, m.Name())
		}
		if m.Devices() != 2 {
			t.Errorf("%s: devices = %d", n, m.Devices())
		}
	}
}

// FuzzPageMapName gives NewPageMap arbitrary names, as a checkpoint
// header or a command-line flag can: it returns an error, or a map whose
// Name() builds the same map again — same Name(), same PagesPerDevice().
func FuzzPageMapName(f *testing.F) {
	for _, layout := range PageMapNames() {
		for _, r := range []string{"", "+r2", "+r3"} {
			for _, mut := range []string{"", "+failover", "+resharded", "+resharded+failover"} {
				f.Add(layout + r + mut)
			}
		}
	}
	// "+resharded" contains "+r": the replica parser must not see it.
	f.Add("striped+resharded+r2")
	f.Add("hash+r02")
	f.Add("blocked+r9")
	f.Fuzz(func(t *testing.T, name string) {
		const p, devices = 3, 4
		m, err := NewPageMap(name, p, p, p, devices)
		if err != nil {
			return
		}
		again, err := NewPageMap(m.Name(), p, p, p, devices)
		if err != nil {
			t.Fatalf("NewPageMap(%q).Name() = %q does not parse: %v", name, m.Name(), err)
		}
		if again.Name() != m.Name() || again.PagesPerDevice() != m.PagesPerDevice() {
			t.Fatalf("NewPageMap(%q): %q with %d pages per device reopened as %q with %d",
				name, m.Name(), m.PagesPerDevice(), again.Name(), again.PagesPerDevice())
		}
	})
}
