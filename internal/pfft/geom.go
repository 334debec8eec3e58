package pfft

import (
	"fmt"

	"oopp/internal/bufpool"
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

// planes returns, for the blocks of phase, how many planes of its buffer a
// sender holds and how many values of each go into one block: a worker
// sends its h1 i1-planes forward, h2 rows of n3 from each to every peer,
// and its h2 i2-planes back, h1 rows from each.
func (g geom) planes(phase int) (count, blockPlane int) {
	if phase == phaseBack {
		return g.h2, g.h1 * g.n3
	}
	return g.h1, g.h2 * g.n3
}

// cut is planes [0, count) of a buffer in consecutive pieces of per planes,
// the last one shorter if per does not divide count.
type cut struct{ count, per int }

// cutPlanes cuts count planes of planeLen values each into pieces of as
// many whole planes as fit bufpool.PieceBytes, and of one if none does —
// so no frame on any pfft path is a fresh zeroed allocation, and a piece is
// small enough beside a buffer (1/8 of a block at 128³ on two workers) that
// sending it overlaps most of the arithmetic. A buffer of few planes is one
// piece; there is no other form. Pieces exist only where frames cross: Load
// and Gather, and the exchange of a worker that has peers. A worker alone
// transforms each phase as one piece.
func cutPlanes(count, planeLen int) cut {
	return cut{count: count, per: max(1, bufpool.PieceBytes/(16*planeLen))}
}

func (c cut) pieces() int { return (c.count + c.per - 1) / c.per }

// piece returns the planes [lo, hi) of piece k.
func (c cut) piece(k int) (lo, hi int) { return k * c.per, min((k+1)*c.per, c.count) }

// rows is the one place that knows the block geometry. For each n3-row
// that planes [lo, hi) of worker from's buffer contribute to the block it
// sends worker to in phase, it calls fn with the row's offset in the
// sender's buffer and in the receiver's — the sender's plane index
// outermost, so a range of planes is a contiguous run of the block. The
// rows are those that the axis-1 slab of one worker and the axis-2 slab of
// the other share: layout A keeps row (i1, i2) of worker s1 at
// (i1*n2 + s2*h2 + i2)*n3, layout B of worker s2 at (i2*n1 + s1*h1 + i1)*n3;
// forward the sender holds A and counts its planes by i1, back it holds B
// and counts them by i2. A gather on one side and a scatter on the other,
// and the baseline's Alltoall payloads, are all this sequence, and the back
// transpose is the forward one with the two layouts swapped. Callers
// never pass from == to: a worker's own block is not sent, and admit
// refuses a piece from the worker itself.
func (g geom) rows(phase, from, to, lo, hi int, fn func(src, dst int)) {
	mine, theirs, srcRows, dstRows := g.h1, g.h2, g.n2, g.n1
	if phase == phaseBack {
		mine, theirs, srcRows, dstRows = g.h2, g.h1, g.n1, g.n2
	}
	for i := lo; i < hi; i++ {
		for j := 0; j < theirs; j++ {
			fn((i*srcRows+to*theirs+j)*g.n3, (j*dstRows+from*mine+i)*g.n3)
		}
	}
}

// gather appends planes [lo, hi) of the block from sends to in phase to e,
// straight out of the sender's buffer: the bytes of PutComplex128s on the
// packed piece.
func (g geom) gather(e *wire.Encoder, phase, from, to, lo, hi int, src []complex128) {
	_, blockPlane := g.planes(phase)
	e.PutComplex128sLen((hi - lo) * blockPlane)
	g.rows(phase, from, to, lo, hi, func(s, _ int) { e.AppendComplex128s(src[s : s+g.n3]) })
}

// scatter takes planes [lo, hi) of the block from sent to in phase out of
// d, whose Complex128sLen has returned their count, straight into the
// receiver's buffer.
func (g geom) scatter(d *wire.Decoder, phase, from, to, lo, hi int, dst []complex128) {
	g.rows(phase, from, to, lo, hi, func(_, at int) { d.CopyComplex128s(dst[at : at+g.n3]) })
}

// axis23 is phase 1 on i1-plane i1 of a slab in layout A: its 2D FFT over
// axes (2,3).
func (g geom) axis23(slab []complex128, i1, sign int) error {
	plane := g.n2 * g.n3
	return fft.FFT2D(slab[i1*plane:(i1+1)*plane], g.n2, g.n3, sign)
}

// axis1 is phase 3 on i2-plane i2 of a buffer in layout B: the FFTs along
// axis 1, which is the first axis of the n1×n3 plane. Worker s's own rows
// of the plane, i1 in [s*h1, (s+1)*h1), are not in tr: they never left its
// slab, where row (i1 - s*h1, s*h2 + i2) holds them, and are transformed
// there through a window; tr's rows for them are unused.
func (g geom) axis1(tr, slab []complex128, s, i2, sign int) error {
	plane := g.n1 * g.n3
	own := fft.Window{V: slab[(s*g.h2+i2)*g.n3:], Stride: g.n2 * g.n3, Lo: s * g.h1, Hi: (s + 1) * g.h1}
	return fft.TransformAxis1Split(tr[i2*plane:(i2+1)*plane], own, g.n1, 1, g.n3, sign)
}
