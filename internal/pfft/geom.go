package pfft

import (
	"fmt"

	"oopp/internal/fft"
	"oopp/internal/wire"
)

// The two transposes of a transform.
const (
	phaseForward = 0 // layout A -> layout B: axis-1 slabs become axis-2 slabs
	phaseBack    = 1 // layout B -> layout A
)

// geom is the slab decomposition of an n1×n2×n3 array among p workers.
// Worker s holds rows [s*h1, (s+1)*h1) of axis 1 as its slab, layout A
// [h1][n2][n3], and — between the transposes — rows [s*h2, (s+1)*h2) of
// axis 2 as its transposed buffer, layout B [h2][n1][n3]. The worker
// processes and the message-passing baseline share it, so E6 compares the
// same data movement.
type geom struct {
	p, n1, n2, n3 int
	h1, h2        int
}

func newGeom(p, n1, n2, n3 int) (geom, error) {
	if p <= 0 || n1%p != 0 || n2%p != 0 {
		return geom{}, fmt.Errorf("pfft: dims %dx%dx%d cannot be split evenly among %d workers", n1, n2, n3, p)
	}
	return geom{p: p, n1: n1, n2: n2, n3: n3, h1: n1 / p, h2: n2 / p}, nil
}

// slabLen and trLen are the element counts of a worker's two buffers.
func (g geom) slabLen() int { return g.h1 * g.n2 * g.n3 }
func (g geom) trLen() int   { return g.h2 * g.n1 * g.n3 }

// blockLen is the element count of every transpose block: the h1×h2 rows
// of n3 that one axis-1 slab and one axis-2 slab have in common.
func (g geom) blockLen() int { return g.h1 * g.h2 * g.n3 }

// rows is the one place that knows the block geometry. For each n3-row of
// the block worker from sends worker to in phase, it calls fn with the
// row's offset in the sender's buffer and in the receiver's. The rows are
// those that the axis-1 slab of worker s1 and the axis-2 slab of worker s2
// share — s1 sends in the forward phase, s2 in the back phase — always in
// the same order, so a gather on one side and a scatter on the other, a
// worker's own block (from == to) and the baseline's Alltoall payloads are
// all this sequence, and the back transpose is the forward one with source
// and destination swapped.
func (g geom) rows(phase, from, to int, fn func(src, dst int)) {
	s1, s2 := from, to
	if phase == phaseBack {
		s1, s2 = to, from
	}
	for i1 := 0; i1 < g.h1; i1++ {
		for i2 := 0; i2 < g.h2; i2++ {
			a := (i1*g.n2 + s2*g.h2 + i2) * g.n3 // in s1's layout A
			b := (i2*g.n1 + s1*g.h1 + i1) * g.n3 // in s2's layout B
			if phase == phaseBack {
				a, b = b, a
			}
			fn(a, b)
		}
	}
}

// gather appends the block from sends to in phase to e, straight out of
// the sender's buffer: the bytes of PutComplex128s on the packed block.
func (g geom) gather(e *wire.Encoder, phase, from, to int, src []complex128) {
	e.PutComplex128sLen(g.blockLen())
	g.rows(phase, from, to, func(s, _ int) { e.AppendComplex128s(src[s : s+g.n3]) })
}

// scatter takes the block from sent to in phase out of d, whose
// Complex128sLen has returned blockLen, straight into the receiver's
// buffer.
func (g geom) scatter(d *wire.Decoder, phase, from, to int, dst []complex128) {
	g.rows(phase, from, to, func(_, at int) { d.CopyComplex128s(dst[at : at+g.n3]) })
}

// axis23 is phase 1: the 2D FFTs over axes (2,3) of a slab in layout A.
func (g geom) axis23(slab []complex128, sign int) error {
	return fft.TransformAxis23(slab, g.h1, g.n2, g.n3, sign)
}

// axis1 is phase 3: the FFTs along axis 1, local in layout B.
func (g geom) axis1(tr []complex128, sign int) error {
	plane := g.n1 * g.n3
	for i2 := 0; i2 < g.h2; i2++ {
		if err := fft.TransformAxis1(tr[i2*plane:(i2+1)*plane], g.n1, 1, g.n3, sign); err != nil {
			return err
		}
	}
	return nil
}
