package pfft

import (
	"math"
	"slices"
	"testing"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// TestRowsIsTheTranspose: geom.rows used as gather-then-scatter moves
// element (i1, i2, i3) of the axis-1 slabs to where layout B keeps it, and
// the back phase is its inverse — for one worker, two and four, on dims
// where a mixed-up extent would show.
func TestRowsIsTheTranspose(t *testing.T) {
	const n1, n2, n3 = 8, 4, 3
	for _, p := range []int{1, 2, 4} {
		g, err := newGeom(p, n1, n2, n3)
		if err != nil {
			t.Fatal(err)
		}
		value := func(i1, i2, i3 int) complex128 { return complex(float64((i1*n2+i2)*n3+i3), float64(p)) }
		slabs, trs, back := make([][]complex128, p), make([][]complex128, p), make([][]complex128, p)
		for s := range slabs {
			slabs[s] = make([]complex128, g.h1*n2*n3)
			for i := range slabs[s] {
				slabs[s][i] = value(s*g.h1+i/(n2*n3), i/n3%n2, i%n3)
			}
			trs[s] = make([]complex128, g.h2*n1*n3)
			back[s] = make([]complex128, g.h1*n2*n3)
		}
		move := func(phase int, src, dst [][]complex128) {
			for from := range p {
				for to := range p {
					e := wire.NewEncoder(0)
					g.gather(e, phase, from, to, src[from])
					d := wire.NewDecoder(e.Bytes())
					if n := d.Complex128sLen(); n != g.blockLen() {
						t.Fatalf("P=%d: block of %d elements, want %d", p, n, g.blockLen())
					}
					g.scatter(d, phase, from, to, dst[to])
					if d.Err() != nil || d.Remaining() != 0 {
						t.Fatalf("P=%d phase %d %d->%d: %v, %d bytes left", p, phase, from, to, d.Err(), d.Remaining())
					}
				}
			}
		}
		move(phaseForward, slabs, trs)
		for s, tr := range trs {
			for i, got := range tr {
				if want := value(i/n3%n1, s*g.h2+i/(n1*n3), i%n3); got != want {
					t.Fatalf("P=%d: layout B of worker %d, element %d = %v, want %v", p, s, i, got, want)
				}
			}
		}
		move(phaseBack, trs, back)
		for s := range slabs {
			if !slices.Equal(back[s], slabs[s]) {
				t.Fatalf("P=%d: back(forward(slab %d)) is not the slab", p, s)
			}
		}
	}
}

// guarded is a worker whose slab and tr sit inside one larger array, so a
// row placed past the end of either lands in memory the test can see
// instead of faulting.
type guarded struct {
	*worker
	all []complex128
}

const (
	guardFill = complex(-7, 7)
	guardPad  = 64
)

// newGuarded returns worker 1 of 2 on a 4×4×2 array (blocks of 8 values),
// grouped unless bare, its memory filled with recognisable values.
func newGuarded(t testing.TB, bare bool) guarded {
	w, err := newWorker(1, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bare {
		return guarded{worker: w}
	}
	if err := w.setGroup(2, make([]rmi.Ref, 2)); err != nil {
		t.Fatal(err)
	}
	all := make([]complex128, 3*guardPad+len(w.slab)+len(w.tr))
	for i := range all {
		all[i] = guardFill
	}
	w.slab = all[guardPad : guardPad+len(w.slab)]
	w.tr = all[2*guardPad+len(w.slab) : 2*guardPad+len(w.slab)+len(w.tr)]
	for i := range w.slab {
		w.slab[i] = complex(float64(i), 1)
	}
	for i := range w.tr {
		w.tr[i] = complex(float64(i), 2)
	}
	return guarded{worker: w, all: all}
}

func bitsOf(v []complex128) []uint64 {
	out := make([]uint64, 0, 2*len(v))
	for _, c := range v {
		out = append(out, math.Float64bits(real(c)), math.Float64bits(imag(c)))
	}
	return out
}

// blockFrame is a storeBlock request body: phase, sender, count, then
// values packed values — which need not agree.
func blockFrame(phase, from, count, values int) []byte {
	e := wire.NewEncoder(0)
	e.PutInt(phase)
	e.PutInt(from)
	e.PutUvarint(uint64(count))
	block := make([]complex128, values)
	for i := range block {
		block[i] = complex(float64(100+i), math.NaN())
	}
	e.AppendComplex128s(block)
	return e.Bytes()
}

// TestStoreBlockRefusesWhole: whatever is wrong with a block, storeBlock
// says so and slab and tr keep every bit; what it accepts it accepts once.
func TestStoreBlockRefusesWhole(t *testing.T) {
	g := newGuarded(t, false)
	n := g.blockLen()
	good := blockFrame(phaseForward, 0, n, n)
	refused := []struct {
		name  string
		frame []byte
	}{
		{"one element short", blockFrame(phaseForward, 0, n-1, n-1)},
		{"one element long", blockFrame(phaseForward, 0, n+1, n+1)},
		{"empty block", blockFrame(phaseForward, 0, 0, 0)},
		{"payload truncated", good[:len(good)-1]},
		{"count without payload", blockFrame(phaseForward, 0, n, 0)},
		{"count larger than any frame", blockFrame(phaseForward, 0, math.MaxInt64/16, 1)},
		{"no count", good[:2]},
		{"phase 2", blockFrame(2, 0, n, n)},
		{"phase -1", blockFrame(-1, 0, n, n)},
		{"sender -1", blockFrame(phaseForward, -1, n, n)},
		{"sender past the group", blockFrame(phaseForward, 2, n, n)},
		{"sender is the worker itself", blockFrame(phaseForward, 1, n, n)},
		{"back block for rows still in use", blockFrame(phaseBack, 0, n, n)},
	}
	check := func(name string, w guarded, frame []byte) {
		t.Helper()
		before := bitsOf(w.all)
		if err := w.storeBlock(wire.NewDecoder(frame)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !slices.Equal(bitsOf(w.all), before) {
			t.Errorf("%s: refused, but the worker's memory changed", name)
		}
	}
	for _, r := range refused {
		check(r.name, g, r.frame)
	}
	check("block before setGroup", newGuarded(t, true), good)

	before := bitsOf(g.all)
	if err := g.storeBlock(wire.NewDecoder(good)); err != nil {
		t.Fatalf("good block refused: %v", err)
	}
	if slices.Equal(bitsOf(g.all), before) || g.landed[phaseForward] != 1 {
		t.Fatalf("good block accepted but not placed (landed %d)", g.landed[phaseForward])
	}
	check("second block from one sender", g, good)
}

// FuzzStoreBlock is the fuzz target of the decoder that reads transpose
// blocks off the socket: for any frame, storeBlock does not panic, writes
// nothing outside slab and tr — and nothing at all when it refuses — and
// an accepted block is in tr value for value.
func FuzzStoreBlock(f *testing.F) {
	n := newGuarded(f, false).blockLen()
	f.Add(blockFrame(phaseForward, 0, n, n))
	f.Add(blockFrame(phaseBack, 0, n, n))
	f.Add(blockFrame(phaseForward, 0, n, n-1))
	f.Add(blockFrame(phaseForward, 1, n, n))
	f.Add(blockFrame(phaseForward, 0, 1<<60, 2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		g := newGuarded(t, false)
		want := slices.Clone(g.all)
		err := g.storeBlock(wire.NewDecoder(frame))
		after := bitsOf(g.all)
		if err != nil {
			if !slices.Equal(after, bitsOf(want)) {
				t.Fatalf("refused (%v), but the worker's memory changed", err)
			}
			return
		}
		// Only a forward block from worker 0 can be accepted here: it is
		// tr's rows S1(0), in rows order.
		d := wire.NewDecoder(frame)
		if d.Int() != phaseForward || d.Int() != 0 || d.Complex128sLen() != n {
			t.Fatalf("accepted a frame that is not a forward block from worker 0")
		}
		trAt := len(want) - guardPad - len(g.tr)
		g.rows(phaseForward, 0, 1, func(_, at int) { d.CopyComplex128s(want[trAt+at : trAt+at+g.n3]) })
		if !slices.Equal(after, bitsOf(want)) {
			t.Fatalf("accepted block is not where rows puts it, or something else was written")
		}
	})
}
