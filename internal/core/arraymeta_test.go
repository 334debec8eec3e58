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
// descriptor that encodes back to a descriptor equal to it and — for a
// grid small enough to walk — builds a page map that is total, in bounds
// and injective, or one NewPageMap refuses by name. The seeds are a plain
// layout, the tables a migration and a failover leave, and those tables
// damaged one way each.
func FuzzArrayMeta(f *testing.F) {
	encoded := func(m *arrayMeta) []byte {
		e := wire.NewEncoder(64)
		m.encode(e)
		return e.Bytes()
	}
	// A 2×2×1 grid of 2×2×2 pages over 3 devices.
	plain := arrayMeta{n: [3]int{4, 4, 2}, p: [3]int{2, 2, 2}, layout: "striped+r2", devices: 3}
	resharded, failedOver := plain, plain
	resharded.layout = "striped+resharded"
	resharded.table = newRemintedMap(plain.grid(), 1, 4, resharded.layout, [][]PageAddress{{{2, 2}}, {{2, 3}}, {{1, 0}}, {{1, 1}}}, nil)
	failedOver.layout = "striped+r2+failover"
	failedOver.table = newRemintedMap(plain.grid(), 2, 6, failedOver.layout, [][]PageAddress{{{0, 0}, {2, 4}}, {{0, 1}, {2, 5}}, {{2, 2}, {0, 4}}, {{2, 3}}}, nil)
	f.Add(encoded(&plain))
	f.Add(encoded(&resharded))
	f.Add(encoded(&failedOver))
	damaged := func(damage func(m *arrayMeta)) {
		m, rm := failedOver, *failedOver.table
		m.table, rm.table = &rm, slices.Clone(rm.table)
		damage(&m)
		blob := encoded(&m)
		if err := new(arrayMeta).decode(wire.NewDecoder(blob)); err == nil {
			f.Fatalf("a damaged descriptor decoded: %+v", m)
		}
		f.Add(blob)
	}
	damaged(func(m *arrayMeta) { m.table.table[3] = []PageAddress{{2, 6}} })              // past ppd
	damaged(func(m *arrayMeta) { m.table.table[3] = []PageAddress{{3, 0}} })              // past the devices
	damaged(func(m *arrayMeta) { m.table.table[3] = []PageAddress{{0, 1}} })              // an address twice
	damaged(func(m *arrayMeta) { m.table.table[3] = nil })                                // an empty chain
	damaged(func(m *arrayMeta) { m.table.table = m.table.table[:3] })                     // a page short of the grid
	damaged(func(m *arrayMeta) { m.table.k = 4 })                                         // more replicas than devices
	damaged(func(m *arrayMeta) { m.p[1] = 3 })                                            // pages that do not tile the array
	damaged(func(m *arrayMeta) { m.table = nil; m.layout = "striped+r2"; m.devices = 0 }) // no device
	// Lengths no frame can hold, where the page count and a chain length go.
	head := encoded(&plain)
	head = head[:len(head)-1]
	for _, n := range []uint64{math.MaxUint64 / 2, 1 << 61, math.MaxUint64/3 + 1, math.MaxUint64} {
		e := wire.NewEncoder(64)
		e.AppendRaw(head)
		e.PutUvarint(n)
		e.PutBytes(make([]byte, 64)) // something behind the prefix, as in a real frame
		f.Add(e.Bytes())
		e = wire.NewEncoder(64)
		e.AppendRaw(head)
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
		g := m.grid()
		if g.p1 > 16 || g.p2 > 16 || g.p3 > 16 || m.devices > 64 {
			return // the walk below is over every page
		}
		pm, err := m.pageMap()
		if err != nil {
			if m.table != nil {
				t.Fatalf("a decoded table builds no map: %v", err)
			}
			return
		}
		if err := checkMapInvariants(pm, g.p1, g.p2, g.p3); err != nil {
			t.Fatal(err)
		}
		if pm.Devices() != m.devices || (m.table != nil && pm.Name() != m.layout) {
			t.Fatalf("descriptor %+v builds %q over %d devices", m, pm.Name(), pm.Devices())
		}
	})
}
