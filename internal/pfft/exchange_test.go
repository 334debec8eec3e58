package pfft

import (
	"math"
	"slices"
	"testing"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// splits calls fn with every way of cutting planes [0, count) into
// consecutive pieces, each as the list of piece bounds 0 = b0 < ... = count.
func splits(count int, fn func(bounds []int)) {
	for cuts := 0; cuts < 1<<(count-1); cuts++ {
		bounds := []int{0}
		for i := 1; i < count; i++ {
			if cuts&(1<<(i-1)) != 0 {
				bounds = append(bounds, i)
			}
		}
		fn(append(bounds, count))
	}
}

// TestRowsIsTheTranspose: geom.rows used as gather-then-scatter moves
// element (i1, i2, i3) of the axis-1 slabs to where layout B keeps it, and
// the back phase is its inverse — for one worker, two and four, on dims
// where a mixed-up extent would show, and however the sender's planes are
// cut into pieces: the pieces of a block are its rows, each once.
func TestRowsIsTheTranspose(t *testing.T) {
	const n1, n2, n3 = 8, 4, 3
	for _, p := range []int{1, 2, 4} {
		g, err := newGeom(p, n1, n2, n3)
		if err != nil {
			t.Fatal(err)
		}
		value := func(i1, i2, i3 int) complex128 { return complex(float64((i1*n2+i2)*n3+i3), float64(p)) }
		slabs := make([][]complex128, p)
		for s := range slabs {
			slabs[s] = make([]complex128, g.slabLen())
			for i := range slabs[s] {
				slabs[s][i] = value(s*g.h1+i/(n2*n3), i/n3%n2, i%n3)
			}
		}
		// move carries every block of phase from src to fresh buffers of
		// dstLen values, each block in the pieces bounds cuts it into.
		move := func(phase int, bounds []int, src [][]complex128, dstLen int) [][]complex128 {
			dst := make([][]complex128, p)
			for s := range dst {
				dst[s] = make([]complex128, dstLen)
			}
			_, blockPlane := g.planes(phase)
			for from := range p {
				for to := range p {
					placed := map[int]bool{}
					for k := 1; k < len(bounds); k++ {
						lo, hi := bounds[k-1], bounds[k]
						e := wire.NewEncoder(0)
						g.gather(e, phase, from, to, lo, hi, src[from])
						d := wire.NewDecoder(e.Bytes())
						if n := d.Complex128sLen(); n != (hi-lo)*blockPlane {
							t.Fatalf("P=%d phase %d: planes [%d, %d) are %d elements, want %d", p, phase, lo, hi, n, (hi-lo)*blockPlane)
						}
						g.scatter(d, phase, from, to, lo, hi, dst[to])
						if d.Err() != nil || d.Remaining() != 0 {
							t.Fatalf("P=%d phase %d %d->%d: %v, %d bytes left", p, phase, from, to, d.Err(), d.Remaining())
						}
						g.rows(phase, from, to, lo, hi, func(_, at int) {
							if placed[at] {
								t.Fatalf("P=%d phase %d %d->%d pieces %v: row at %d placed twice", p, phase, from, to, bounds, at)
							}
							placed[at] = true
						})
					}
					if len(placed)*n3 != g.blockLen() {
						t.Fatalf("P=%d phase %d %d->%d pieces %v: %d rows placed, a block has %d", p, phase, from, to, bounds, len(placed), g.blockLen()/n3)
					}
				}
			}
			return dst
		}
		var trs [][]complex128
		splits(g.h1, func(bounds []int) {
			trs = move(phaseForward, bounds, slabs, g.trLen())
			for s, tr := range trs {
				for i, got := range tr {
					if want := value(i/n3%n1, s*g.h2+i/(n1*n3), i%n3); got != want {
						t.Fatalf("P=%d pieces %v: layout B of worker %d, element %d = %v, want %v", p, bounds, s, i, got, want)
					}
				}
			}
		})
		splits(g.h2, func(bounds []int) {
			for s, back := range move(phaseBack, bounds, trs, g.slabLen()) {
				if !slices.Equal(back, slabs[s]) {
					t.Fatalf("P=%d pieces %v: back(forward(slab %d)) is not the slab", p, bounds, s)
				}
			}
		})
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

// newGuarded returns worker 1 of 2 on an 8×4×2 array — a forward block is
// four planes of four values, a back block two planes of eight — grouped
// unless bare, its memory filled with recognisable values.
func newGuarded(t testing.TB, bare bool) guarded {
	w, err := newWorker(1, 8, 4, 2)
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

// pieceFrame is a storeBlock request body: phase, sender, first plane,
// count, then values packed values — which need not agree.
func pieceFrame(phase, from, lo, count, values int) []byte {
	e := wire.NewEncoder(0)
	e.PutInt(phase)
	e.PutInt(from)
	e.PutInt(lo)
	e.PutUvarint(uint64(count))
	piece := make([]complex128, values)
	for i := range piece {
		piece[i] = complex(float64(100+i), math.NaN())
	}
	e.AppendComplex128s(piece)
	return e.Bytes()
}

// TestStoreBlockRefusesWhole: whatever is wrong with a piece, storeBlock
// says so and slab and tr keep every bit; what it accepts it accepts once,
// plane by plane, and a block whose planes are all in takes no more.
func TestStoreBlockRefusesWhole(t *testing.T) {
	g := newGuarded(t, false)
	planes, plane := g.planes(phaseForward)
	n := g.blockLen()
	good := pieceFrame(phaseForward, 0, 0, n, n)
	refused := []struct {
		name  string
		frame []byte
	}{
		{"one element short", pieceFrame(phaseForward, 0, 0, n-1, n-1)},
		{"one element long", pieceFrame(phaseForward, 0, 0, n+1, n+1)},
		{"a plane and a half", pieceFrame(phaseForward, 0, 1, plane+plane/2, plane+plane/2)},
		{"empty piece", pieceFrame(phaseForward, 0, 0, 0, 0)},
		{"payload truncated", good[:len(good)-1]},
		{"count without payload", pieceFrame(phaseForward, 0, 0, n, 0)},
		{"count larger than any frame", pieceFrame(phaseForward, 0, 0, math.MaxInt64/16, 1)},
		{"no count", good[:3]},
		{"no first plane", good[:2]},
		{"phase 2", pieceFrame(2, 0, 0, n, n)},
		{"phase -1", pieceFrame(-1, 0, 0, n, n)},
		{"sender -1", pieceFrame(phaseForward, -1, 0, n, n)},
		{"sender past the group", pieceFrame(phaseForward, 2, 0, n, n)},
		{"sender is the worker itself", pieceFrame(phaseForward, 1, 0, n, n)},
		{"first plane -1", pieceFrame(phaseForward, 0, -1, plane, plane)},
		{"first plane past the block", pieceFrame(phaseForward, 0, planes, plane, plane)},
		{"first plane at the end of the ints", pieceFrame(phaseForward, 0, math.MaxInt64, plane, plane)},
		{"two planes from the last one", pieceFrame(phaseForward, 0, planes-1, 2*plane, 2*plane)},
		{"whole block from plane 1", pieceFrame(phaseForward, 0, 1, n, n)},
		{"back piece for rows still in use", pieceFrame(phaseBack, 0, 0, n, n)},
		{"back plane for rows still in use", pieceFrame(phaseBack, 0, 1, n/2, n/2)},
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
	check("piece before setGroup", newGuarded(t, true), good)

	accept := func(lo, hi int) {
		t.Helper()
		before, landed := bitsOf(g.all), g.landed[phaseForward]
		if err := g.storeBlock(wire.NewDecoder(pieceFrame(phaseForward, 0, lo, (hi-lo)*plane, (hi-lo)*plane))); err != nil {
			t.Fatalf("planes [%d, %d) refused: %v", lo, hi, err)
		}
		if slices.Equal(bitsOf(g.all), before) || g.landed[phaseForward] != landed+hi-lo {
			t.Fatalf("planes [%d, %d) accepted but not placed (landed %d)", lo, hi, g.landed[phaseForward])
		}
	}
	accept(1, 3)
	check("a plane twice", g, pieceFrame(phaseForward, 0, 1, plane, plane))
	check("a piece twice", g, pieceFrame(phaseForward, 0, 1, 2*plane, 2*plane))
	check("piece overlapping from below", g, pieceFrame(phaseForward, 0, 0, 2*plane, 2*plane))
	check("piece overlapping from above", g, pieceFrame(phaseForward, 0, 2, 2*plane, 2*plane))
	check("whole block over a piece", g, good)
	for _, r := range refused { // what was wrong before a piece landed is wrong after
		check(r.name+", block half in", g, r.frame)
	}
	accept(3, 4)
	if !g.open[phaseForward][0] {
		t.Fatal("slot closed with a plane still to come")
	}
	accept(0, 1)
	if g.open[phaseForward][0] || slices.Contains(g.got[phaseForward][0], true) {
		t.Fatal("block complete, but its slot is open or its planes still marked")
	}
	check("second block from one sender", g, good)
	check("plane for a closed slot", g, pieceFrame(phaseForward, 0, 2, plane, plane))
}

// FuzzStoreBlock is the fuzz target of the decoder that reads transpose
// pieces off the socket: for any two frames, one after the other,
// storeBlock does not panic, writes nothing outside slab and tr — and
// nothing at all when it refuses — and an accepted piece is whole planes
// of the forward block from worker 0, none of them placed before, in tr
// value for value.
func FuzzStoreBlock(f *testing.F) {
	g := newGuarded(f, false)
	planes, plane := g.planes(phaseForward)
	n := g.blockLen()
	whole := pieceFrame(phaseForward, 0, 0, n, n)
	f.Add(whole, whole)
	f.Add(pieceFrame(phaseBack, 0, 0, n, n), pieceFrame(phaseBack, 0, 1, n/2, n/2))
	f.Add(pieceFrame(phaseForward, 0, 0, n, n-1), whole)
	f.Add(pieceFrame(phaseForward, 1, 0, n, n), []byte{})
	f.Add(pieceFrame(phaseForward, 0, 0, 1<<60, 2), pieceFrame(phaseForward, 0, 1<<62, plane, plane))
	f.Add([]byte{}, whole)
	f.Add(pieceFrame(phaseForward, 0, 1, 2*plane, 2*plane), pieceFrame(phaseForward, 0, 2, 2*plane, 2*plane))
	f.Add(pieceFrame(phaseForward, 0, 0, 2*plane, 2*plane), pieceFrame(phaseForward, 0, 2, 2*plane, 2*plane))
	f.Add(pieceFrame(phaseForward, 0, planes-1, plane, plane), pieceFrame(phaseForward, 0, planes-1, 2*plane, 2*plane))
	f.Add(pieceFrame(phaseForward, 0, -1, plane, plane), pieceFrame(phaseForward, 0, 1, plane+1, plane+1))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		g := newGuarded(t, false)
		want := slices.Clone(g.all)
		trAt := len(want) - guardPad - len(g.tr)
		placed := make([]bool, planes)
		for _, frame := range [][]byte{first, second} {
			err := g.storeBlock(wire.NewDecoder(frame))
			if err == nil {
				// Only planes of the forward block from worker 0 can be
				// accepted here: they are tr's rows S1(0), in rows order.
				d := wire.NewDecoder(frame)
				phase, from, lo := d.Int(), d.Int(), d.Int()
				n := d.Complex128sLen()
				if phase != phaseForward || from != 0 || n <= 0 || n%plane != 0 || lo < 0 || lo > planes-n/plane {
					t.Fatalf("accepted a frame that is not planes of the forward block from worker 0")
				}
				hi := lo + n/plane
				if slices.Contains(placed[lo:hi], true) {
					t.Fatalf("accepted planes [%d, %d), one of them a second time", lo, hi)
				}
				for i := lo; i < hi; i++ {
					placed[i] = true
				}
				g.rows(phaseForward, 0, 1, lo, hi, func(_, at int) { d.CopyComplex128s(want[trAt+at : trAt+at+g.n3]) })
			}
			if !slices.Equal(bitsOf(g.all), bitsOf(want)) {
				t.Fatalf("after %v: a refused piece changed the worker's memory, or an accepted one is not where rows puts it", err)
			}
		}
	})
}
