package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"oopp/internal/wire"
)

// FuzzArrayMeta gives the descriptor decoder arbitrary bytes, as a
// checkpoint blob or a describe reply can hold: it returns an error, or a
// descriptor that encodes back to a descriptor equal to it, whose every
// chain holds at most k copies on as many devices and — for a grid small
// enough to walk — whose page map is total, in bounds and injective. The
// seeds are a plain layout's table, the tables a migration and a
// failover leave, and those tables damaged one way each.
func FuzzArrayMeta(f *testing.F) {
	encoded := func(m *arrayMeta) []byte {
		e := wire.NewEncoder(64)
		m.encode(e)
		return e.Bytes()
	}
	// A 2×2×1 grid of 2×2×2 pages over 3 devices.
	striped, err := NewPageMap("striped+r2", 2, 2, 1, 3)
	if err != nil {
		f.Fatal(err)
	}
	plain := arrayMeta{n: [3]int{4, 4, 2}, p: [3]int{2, 2, 2}, pm: striped}
	resharded, failedOver := plain, plain
	resharded.pm = newPageMap(striped.grid, 1, 4, "striped+resharded", [][]PageAddress{{{2, 2}}, {{2, 3}}, {{1, 0}}, {{1, 1}}}, nil)
	failedOver.pm = newPageMap(striped.grid, 2, 6, "striped+r2+failover", [][]PageAddress{{{0, 0}, {2, 4}}, {{0, 1}, {2, 5}}, {{2, 2}, {0, 4}}, {{2, 3}}}, nil)
	f.Add(encoded(&plain))
	f.Add(encoded(&resharded))
	f.Add(encoded(&failedOver))
	damaged := func(damage func(m *arrayMeta)) {
		m, pm := failedOver, *failedOver.pm
		m.pm, pm.chains = &pm, slices.Clone(pm.chains)
		damage(&m)
		blob := encoded(&m)
		if err := new(arrayMeta).decode(wire.NewDecoder(blob)); err == nil {
			f.Fatalf("a damaged descriptor decoded: %+v", m)
		}
		f.Add(blob)
	}
	damaged(func(m *arrayMeta) { m.pm.chains[3] = []PageAddress{{2, 6}} })                 // past ppd
	damaged(func(m *arrayMeta) { m.pm.chains[3] = []PageAddress{{3, 0}} })                 // past the devices
	damaged(func(m *arrayMeta) { m.pm.chains[3] = []PageAddress{{0, 1}} })                 // an address twice
	damaged(func(m *arrayMeta) { m.pm.chains[3] = nil })                                   // an empty chain
	damaged(func(m *arrayMeta) { m.pm.chains = m.pm.chains[:3] })                          // a page short of the grid
	damaged(func(m *arrayMeta) { m.pm.k = 4 })                                             // more replicas than devices
	damaged(func(m *arrayMeta) { m.p[1] = 3 })                                             // pages that do not tile the array
	damaged(func(m *arrayMeta) { m.pm.devices = 0 })                                       // no device
	damaged(func(m *arrayMeta) { m.pm.chains[0] = []PageAddress{{0, 0}, {0, 2}} })         // two copies on one device
	damaged(func(m *arrayMeta) { m.pm.chains[1] = []PageAddress{{0, 1}, {2, 5}, {1, 0}} }) // more copies than k
	// Lengths no frame can hold, where the page count and a chain length go.
	head := func() *wire.Encoder {
		e := wire.NewEncoder(64)
		for _, v := range [...]int{4, 4, 2, 2, 2, 2} {
			e.PutInt(v)
		}
		e.PutString("striped+r2")
		e.PutInt(3)
		return e
	}
	for _, n := range []uint64{math.MaxUint64 / 2, 1 << 61, math.MaxUint64/3 + 1, math.MaxUint64} {
		e := head()
		e.PutUvarint(n)
		e.PutBytes(make([]byte, 64)) // something behind the prefix, as in a real frame
		f.Add(e.Bytes())
		e = head()
		e.PutUvarint(4)
		e.PutInt(2)
		e.PutInt(6)
		e.PutUvarint(n)
		e.PutBytes(make([]byte, 64))
		f.Add(e.Bytes())
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		m := &arrayMeta{}
		if err := m.decode(wire.NewDecoder(blob)); err != nil {
			return
		}
		again := &arrayMeta{}
		if err := again.decode(wire.NewDecoder(encoded(m))); err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("descriptor %+v encodes to one that decodes as %+v (%v)", m, again, err)
		}
		pm := m.pm
		for l, chain := range pm.chains {
			devs := make(map[int]bool)
			for _, addr := range chain {
				devs[addr.Device] = true
			}
			if len(chain) > pm.k || len(devs) != len(chain) {
				t.Fatalf("page %d: chain %v with k=%d", l, chain, pm.k)
			}
		}
		if pm.p1 > 16 || pm.p2 > 16 || pm.p3 > 16 || pm.devices > 64 {
			return // the walk below is over every page
		}
		if err := checkMapInvariants(pm, pm.p1, pm.p2, pm.p3); err != nil {
			t.Fatal(err)
		}
	})
}
