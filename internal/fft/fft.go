// Package fft provides the Fourier transform kernels under the paper's
// motivating computation: "the problem of computing a Fourier transform
// on a very large (Petascale) three-dimensional array can be considered
// as a prototype problem where massive and highly parallel data
// communications are necessary" (§1).
//
// The package is pure sequential math — the local work each FFT process
// performs. The distributed organisation (worker processes, SetGroup,
// transpose exchanges) lives in internal/pfft.
//
// A power-of-two transform is one radix-4 decimation-in-time kernel in two
// forms, Plan.radix4 on a contiguous line and Plan.radix4Rows on a run of
// adjacent columns, that goes two radix-2 stages to a sweep of the data.
// The first sweep reads its input through the bit reversal and writes a
// working line, firstSweep(n) values at a time: when log2 n is odd and at
// least 3, groups of eight, on which it runs the size-2 stage and the
// radix-4 pass over groups of eight together; when log2 n is even, a
// radix-4 pass over groups of four; for n = 2 the size-2 stage, which is the
// whole transform. Only the eight-point sweep multiplies by twiddles — those
// of one butterfly of the two in a group — and the inverse's 1/n, a power of
// two and so exact, rides on the values of the size-2 stage or of the
// four-point pass. Every later sweep is a radix-4 pass over groups of 4h
// values (h the group of the sweep before), in place in the working line
// until the last one, which writes the result back over the input.
// Butterfly k of a group multiplies three of its four values by twiddles
// the plan holds in the order the pass reads them, one table per sign, and
// butterfly 0 of every group, whose twiddles are 1, multiplies nothing; the
// −i between the two fused stages is a swap of real and imaginary parts,
// not a multiplication. So a length-128 line is swept three times where a
// radix-2 loop, its bit reversal counted, sweeps it eight, and a pass spends
// three complex multiplications where two radix-2 stages spend four. The
// eight-point sweep applies to every value the operations the size-2 stage
// and the pass after it applied one sweep each, in the same order, so
// opening with it moved no bit of any result.
// Results differ from a radix-2 loop's in the last few bits — that loop
// multiplied by tw[n/4] = (6e-17, −1) where this one swaps, and by two
// twiddles in turn where this one has their product as one rounded table
// entry; TestRadix4WithinUlpsOfRadix2 holds the two to 1e-12.
//
// A line along the last axis of a row-major array is contiguous and goes
// through Plan.Transform where it lies. A line along any other axis is a
// column of an n×m block — n the axis, m the product of the extents after
// it — and is never gathered into a line of its own: Plan.columns takes
// runs of colTile adjacent columns through the kernel together, row
// segment against row segment, with an n×colTile tile pooled by the plan
// as the working line. The rows of the block are read once, by the first
// sweep, and written once, by the last, however far apart they lie — 256
// KiB along the first axis of a 128³ array, every row of a tile in the
// same cache sets — and everything between happens in the tile. They need
// not even lie in one buffer: a Window puts a run of them in a second one,
// at a stride of its own (TransformAxis1Split). Each element sees the
// operations Transform would apply to its column, in the same order, so
// the results are the gathered form's bit for bit (on arm64 and other
// targets where the compiler may fuse a multiply and an add differently in
// the two loops, to 1e-12). FFT2D (m = n2), FFT3D (m = n3 within each
// i1-plane, then m = n2·n3) and TransformAxis1 (m = n2·n3) are the callers;
// pfft's workers reach it one plane at a time, through FFT2D on an i1-plane
// (m = n3) and TransformAxis1Split on an i2-plane (n2 = 1, m = n3), whose
// own rows are in the slab. Lengths that are not powers of two take
// Bluestein's algorithm line by line, over an inner power-of-two plan,
// with the scratch of both forms recycled by the plan.
//
// Conventions: sign=-1 is the forward transform, sign=+1 the inverse;
// the inverse is normalized by 1/N, so the inverse of the forward is x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// planCache shares plans across calls. A Plan is immutable after
// construction (Transform touches only the input and per-call scratch),
// so one plan per length serves any number of goroutines — this is what
// makes the multi-axis helpers below cheap to call repeatedly from FFT
// worker processes.
var planCache sync.Map // int -> *Plan

// PlanFor returns a (possibly shared) plan for length n.
func PlanFor(n int) (*Plan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*Plan), nil
}

// Plan holds precomputed tables for transforms of one length. Plans are
// safe for concurrent use once built: Transform uses only per-call
// scratch when needed.
type Plan struct {
	n    int
	pow2 bool
	// power-of-two tables
	rev    []int              // bit-reversal permutation
	passes [2][][3]complex128 // twiddles of the forward and of the inverse transform, see newPasses
	// Bluestein tables (nil for powers of two)
	bs *bluestein
	// line recycles a length-n buffer: the working line of a power-of-two
	// transform, the gathered column of columns for any other plan. tile
	// recycles the n×colTile working block of a power-of-two columns.
	line, tile sync.Pool // *[]complex128
}

// NewPlan builds a plan for length n (n >= 1).
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid length %d", n)
	}
	p := &Plan{n: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.rev = bitRevTable(n)
		p.passes = [2][][3]complex128{newPasses(n, -1), newPasses(n, +1)}
		return p, nil
	}
	bs, err := newBluestein(n)
	if err != nil {
		return nil, err
	}
	p.bs = bs
	return p, nil
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// Transform runs the planned FFT on x in place. len(x) must equal Len.
// sign=-1 forward, sign=+1 inverse (normalized).
func (p *Plan) Transform(x []complex128, sign int) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, input %d", p.n, len(x)))
	}
	p.lines(x, sign)
}

// lines transforms the len(x)/Len contiguous lines of x, the last axis of
// a row-major array.
func (p *Plan) lines(x []complex128, sign int) {
	n := p.n
	if n == 1 {
		return
	}
	if p.pow2 {
		t := scratch(&p.line, n)
		for i := 0; i < len(x); i += n {
			p.radix4(x[i:i+n], *t, sign)
		}
		p.line.Put(t)
		return
	}
	scale := 1 / float64(n)
	for i := 0; i < len(x); i += n {
		line := x[i : i+n]
		p.bs.transform(line, sign)
		if sign > 0 {
			for k, v := range line {
				line[k] = scaled(v, scale)
			}
		}
	}
}

// firstQuarter is h of the first radix-4 pass of a length-n transform that
// has twiddles: 2 when log2 n is odd, the pass that the eight-point first
// sweep runs after the size-2 stage; 4 after the twiddle-free radix-4 pass
// that opens the transform when log2 n is even.
func firstQuarter(n int) int { return 4 >> (bits.TrailingZeros(uint(n)) & 1) }

// newPasses lays out the twiddles of every radix-4 pass of a length-n
// transform in the order the pass reads them: for h = firstQuarter(n), 4h,
// 16h, … while 4h <= n, and k < h, the three factors of butterfly k,
// e^{s·2πik/2h}, e^{s·2πik/4h}, e^{s·2πi·3k/4h} with s the sign. The k = 0
// triple is (1, 1, 1) and is never read.
func newPasses(n, sign int) [][3]complex128 {
	var tw [][3]complex128
	for h := firstQuarter(n); 4*h <= n; h *= 4 {
		for k := 0; k < h; k++ {
			var w [3]complex128
			for i, j := range [3]int{2 * k, k, 3 * k} {
				s, c := math.Sincos(float64(sign) * 2 * math.Pi * float64(j) / float64(4*h))
				w[i] = complex(c, s)
			}
			tw = append(tw, w)
		}
	}
	return tw
}

// butterfly4 is two radix-2 stages on four values, the last three already
// multiplied by their twiddles: y0, y2 = (x0+t1) ± (t2+t3) and y1, y3 =
// (x0−t1) ∓ i·(t2−t3). It is written for the forward transform; the
// inverse's +i is the same butterfly with y1 and y3 stored the other way
// round, so neither a sign test nor a conjugation is left inside a loop.
func butterfly4(x0, t1, t2, t3 complex128) (y0, y1, y2, y3 complex128) {
	b0, b1 := x0+t1, x0-t1
	s, u := t2+t3, t2-t3
	// b1 ∓ i·u, written out so that no value is negated on the way.
	y1 = complex(real(b1)+imag(u), imag(b1)-real(u))
	y3 = complex(real(b1)-imag(u), imag(b1)+real(u))
	return b0 + s, y1, b0 - s, y3
}

func scaled(v complex128, by float64) complex128 { return complex(real(v)*by, imag(v)*by) }

// signed is all that tells the inverse kernel from the forward one: the
// conjugate twiddles, the quarters o1 and o3 of a group that a butterfly's
// y1 and y3 go to — 1 and 3, the other way round for the inverse — and
// the scale of the first sweep's output.
func (p *Plan) signed(sign int) (tw [][3]complex128, o1, o3 int, scale float64) {
	if sign > 0 {
		return p.passes[1], 3, 1, 1 / float64(p.n)
	}
	return p.passes[0], 1, 3, 1
}

// firstSweep is how many values the sweep that opens a length-n transform
// reads through the bit reversal at a time: 2 for n = 2, where the size-2
// stage is the whole transform; 4 when log2 n is even, a radix-4 pass over
// groups of four; 8 when it is odd and at least 3, the size-2 stage and the
// radix-4 pass over groups of eight (h = firstQuarter(n) = 2) together. It is
// also the h of the pass that follows it, if 4h <= n.
func firstSweep(n int) int {
	if n == 2 {
		return 2
	}
	return 4 << (bits.TrailingZeros(uint(n)) & 1)
}

// radix4 is the power-of-two kernel, decimation in time, on one line x
// with t as its working line. The first sweep reads x through the bit
// reversal and writes t, with the inverse's 1/n on the values of the size-2
// stage or of the pass it opens with: firstSweep(n) values at a time, a
// group of 8 for odd log2 n ≥ 3 — the size-2 stage on its four pairs, then
// the h = 2 pass on them, the one butterfly of the two with twiddles
// multiplying by tw[1] — and of 4 for even log2 n, no twiddle. Every later
// sweep is a radix-4 pass that fuses two radix-2 stages over groups of 4h
// values, in place in t until the last, which writes x.
func (p *Plan) radix4(x, t []complex128, sign int) {
	n, rev := p.n, p.rev
	x, t = x[:n], t[:n]
	tw, o1, o3, scale := p.signed(sign)
	h := firstSweep(n)
	dst := t
	if 4*h > n {
		dst = x // no pass follows: the first sweep is the last
	}
	switch h {
	case 2:
		a, b := x[rev[0]], x[rev[1]]
		if sign < 0 {
			dst[0], dst[1] = a+b, a-b
			break
		}
		dst[0], dst[1] = scaled(a+b, scale), scaled(a-b, scale)
	case 4:
		for i := 0; i+3 < n; i += 4 {
			y0, y1, y2, y3 := butterfly4(x[rev[i]], x[rev[i+1]], x[rev[i+2]], x[rev[i+3]])
			if sign < 0 {
				dst[i], dst[i+o1], dst[i+2], dst[i+o3] = y0, y1, y2, y3
				continue
			}
			dst[i], dst[i+o1], dst[i+2], dst[i+o3] = scaled(y0, scale), scaled(y1, scale), scaled(y2, scale), scaled(y3, scale)
		}
	case 8:
		w1, w2, w3 := tw[1][0], tw[1][1], tw[1][2]
		for i := 0; i+7 < n; i += 8 {
			r := rev[i : i+8]
			a0, a1, a2, a3 := x[r[0]], x[r[1]], x[r[2]], x[r[3]]
			a4, a5, a6, a7 := x[r[4]], x[r[5]], x[r[6]], x[r[7]]
			v0, v1, v2, v3 := a0+a1, a0-a1, a2+a3, a2-a3
			v4, v5, v6, v7 := a4+a5, a4-a5, a6+a7, a6-a7
			if sign > 0 {
				v0, v1, v2, v3 = scaled(v0, scale), scaled(v1, scale), scaled(v2, scale), scaled(v3, scale)
				v4, v5, v6, v7 = scaled(v4, scale), scaled(v5, scale), scaled(v6, scale), scaled(v7, scale)
			}
			d := dst[i : i+8]
			d[0], d[2*o1], d[4], d[2*o3] = butterfly4(v0, v2, v4, v6)
			d[1], d[2*o1+1], d[5], d[2*o3+1] = butterfly4(v1, v3*w1, v5*w2, v7*w3)
		}
		tw = tw[2:]
	}
	for ; 4*h <= n; h *= 4 {
		if 4*h == n {
			dst = x
		}
		for s := 0; s < n; s += 4 * h {
			x0, x1, x2, x3 := t[s:s+h], t[s+h:s+2*h], t[s+2*h:s+3*h], t[s+3*h:s+4*h]
			y0, y1, y2, y3 := dst[s:s+h], dst[s+o1*h:s+o1*h+h], dst[s+2*h:s+3*h], dst[s+o3*h:s+o3*h+h]
			y0[0], y1[0], y2[0], y3[0] = butterfly4(x0[0], x1[0], x2[0], x3[0])
			w := tw[:len(x0)]
			x1, x2, x3, y0, y1, y2, y3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], y0[:len(x0)], y1[:len(x0)], y2[:len(x0)], y3[:len(x0)]
			for k := 1; k < len(x0); k++ {
				y0[k], y1[k], y2[k], y3[k] = butterfly4(x0[k], x1[k]*w[k][0], x2[k]*w[k][1], x3[k]*w[k][2])
			}
		}
		tw = tw[h:]
	}
}

// colTile is how many adjacent columns columns carries through the
// butterflies together: 32 values are 512 B of every row, so the n×32 tile
// of a length-128 axis is 64 KiB and stays in cache from the first stage to
// the last however long the rows are, while a run is long enough to
// amortise the twiddle load and the loop set-up of a butterfly.
const colTile = 32

// columns transforms every column of the row-major n×m block x (n = Len)
// along its first axis, in place: the strided-axis kernel of the multi-axis
// transforms. It is split with no row in a window of its own.
func (p *Plan) columns(x []complex128, m, sign int) { p.split(x, Window{}, m, sign) }

// split is columns on a block whose rows [own.Lo, own.Hi) lie in own.V, not
// in x. It is radix4 with a run of adjacent columns where radix4 has one
// value — a butterfly works on four row segments with one triple of
// twiddles, the working line is a tile of n row segments — so no column is
// ever gathered into a line of its own, and each element sees the
// operations of Transform on its column in the same order. The rows of the
// block are reached through rows.at wherever they lie: x's rows in the
// window are neither read nor written, nor is anything of own.V outside
// them. A plan that is not a power of two has no butterflies to run side by
// side: it gathers each column into pooled scratch through the same rows.at
// and calls Transform.
func (p *Plan) split(x []complex128, own Window, m, sign int) {
	n := p.n
	if len(x) != n*m {
		panic(fmt.Sprintf("fft: plan length %d, block of %d is not %d columns", n, len(x), m))
	}
	if n == 1 {
		return
	}
	if !p.pow2 {
		r := rows{x, m, m, own}
		col := scratch(&p.line, n)
		for c := 0; c < m; c++ {
			for i := range *col {
				(*col)[i] = r.at(i)[c]
			}
			p.Transform(*col, sign)
			for i, v := range *col {
				r.at(i)[c] = v
			}
		}
		p.line.Put(col)
		return
	}
	tile := scratch(&p.tile, n*colTile)
	for c0 := 0; c0 < m; c0 += colTile {
		run := min(colTile, m-c0)
		p.radix4Rows(rows{x[c0:], m, run, own.from(c0)}, rows{v: *tile, stride: run, run: run}, sign)
	}
	p.tile.Put(tile)
}

// Window places rows [Lo, Hi) of a row-major block in a buffer of their
// own: row i of the window is the run of V that starts at (i-Lo)*Stride,
// as long as a row of the block, not the row's place in the block. The
// zero Window places no row.
type Window struct {
	V              []complex128
	Stride, Lo, Hi int
}

// from is the window of the columns from c on.
func (w Window) from(c int) Window {
	if w.Hi > w.Lo {
		w.V = w.V[c:]
	}
	return w
}

// rows is a run of adjacent columns of a row-major block: row i is the
// segment v[i*stride:][:run], or own.V[(i-own.Lo)*own.Stride:][:run] for a
// row in the window.
type rows struct {
	v           []complex128
	stride, run int
	own         Window
}

func (r rows) at(i int) []complex128 {
	if j := i - r.own.Lo; uint(j) < uint(r.own.Hi-r.own.Lo) {
		return r.own.V[j*r.own.Stride : j*r.own.Stride+r.run]
	}
	return r.v[i*r.stride : i*r.stride+r.run]
}

// radix4Rows is radix4 with the row segments of x and of the tile t where
// radix4 has the values of x and of t: the same sweeps — a first one of
// firstSweep(n) rows at a time, 8 for odd log2 n ≥ 3 — and the same
// operations on each element in the same order. On amd64 that makes the
// two bit for bit equal; a compiler that fuses a multiplication and an
// addition (arm64, s390x) may fuse differently in the two loops, and the
// tests allow those targets 1e-12.
func (p *Plan) radix4Rows(x, t rows, sign int) {
	n, rev := p.n, p.rev
	tw, o1, o3, scale := p.signed(sign)
	h := firstSweep(n)
	dst := t
	if 4*h > n && h != 8 {
		dst = x
	}
	switch h {
	case 2:
		a, b := x.at(rev[0]), x.at(rev[1])
		y0, y1 := dst.at(0), dst.at(1)
		b, y0, y1 = b[:len(a)], y0[:len(a)], y1[:len(a)]
		if sign < 0 {
			for c := range a {
				y0[c], y1[c] = a[c]+b[c], a[c]-b[c]
			}
			break
		}
		for c := range a {
			y0[c], y1[c] = scaled(a[c]+b[c], scale), scaled(a[c]-b[c], scale)
		}
	case 4:
		for i := 0; i+3 < n; i += 4 {
			x0, x1, x2, x3 := x.at(rev[i]), x.at(rev[i+1]), x.at(rev[i+2]), x.at(rev[i+3])
			y0, y1, y2, y3 := dst.at(i), dst.at(i+o1), dst.at(i+2), dst.at(i+o3)
			x1, x2, x3, y0, y1, y2, y3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], y0[:len(x0)], y1[:len(x0)], y2[:len(x0)], y3[:len(x0)]
			if sign < 0 {
				for c := range x0 {
					y0[c], y1[c], y2[c], y3[c] = butterfly4(x0[c], x1[c], x2[c], x3[c])
				}
				continue
			}
			for c := range x0 {
				v0, v1, v2, v3 := butterfly4(x0[c], x1[c], x2[c], x3[c])
				y0[c], y1[c], y2[c], y3[c] = scaled(v0, scale), scaled(v1, scale), scaled(v2, scale), scaled(v3, scale)
			}
		}
	case 8:
		// The two butterflies of a group of eight rows go in two loops over
		// the run, each of eight row segments in and four out; the second
		// reads its eight again, from L1, where one loop would keep sixteen
		// segments and eight values live. So the sweep writes the tile even
		// when it is the last (n = 8), and the tile is copied back.
		w1, w2, w3 := tw[1][0], tw[1][1], tw[1][2]
		for i := 0; i+7 < n; i += 8 {
			x0, x1, x2, x3 := x.at(rev[i]), x.at(rev[i+1]), x.at(rev[i+2]), x.at(rev[i+3])
			x4, x5, x6, x7 := x.at(rev[i+4]), x.at(rev[i+5]), x.at(rev[i+6]), x.at(rev[i+7])
			x1, x2, x3, x4, x5, x6, x7 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], x4[:len(x0)], x5[:len(x0)], x6[:len(x0)], x7[:len(x0)]
			y0, y1, y2, y3 := dst.at(i), dst.at(i+2*o1), dst.at(i+4), dst.at(i+2*o3)
			y0, y1, y2, y3 = y0[:len(x0)], y1[:len(x0)], y2[:len(x0)], y3[:len(x0)]
			for c := range x0 {
				v0, v2, v4, v6 := x0[c]+x1[c], x2[c]+x3[c], x4[c]+x5[c], x6[c]+x7[c]
				if sign > 0 {
					v0, v2, v4, v6 = scaled(v0, scale), scaled(v2, scale), scaled(v4, scale), scaled(v6, scale)
				}
				y0[c], y1[c], y2[c], y3[c] = butterfly4(v0, v2, v4, v6)
			}
			y0, y1, y2, y3 = dst.at(i+1), dst.at(i+2*o1+1), dst.at(i+5), dst.at(i+2*o3+1)
			y0, y1, y2, y3 = y0[:len(x0)], y1[:len(x0)], y2[:len(x0)], y3[:len(x0)]
			for c := range x0 {
				v1, v3, v5, v7 := x0[c]-x1[c], x2[c]-x3[c], x4[c]-x5[c], x6[c]-x7[c]
				if sign > 0 {
					v1, v3, v5, v7 = scaled(v1, scale), scaled(v3, scale), scaled(v5, scale), scaled(v7, scale)
				}
				y0[c], y1[c], y2[c], y3[c] = butterfly4(v1, v3*w1, v5*w2, v7*w3)
			}
		}
		if n == 8 {
			for i := range n {
				copy(x.at(i), t.at(i))
			}
		}
		tw = tw[2:]
	}
	for ; 4*h <= n; h *= 4 {
		if 4*h == n {
			dst = x
		}
		for s := 0; s < n; s += 4 * h {
			for k := 0; k < h; k++ {
				x0, x1, x2, x3 := t.at(s+k), t.at(s+k+h), t.at(s+k+2*h), t.at(s+k+3*h)
				y0, y1, y2, y3 := dst.at(s+k), dst.at(s+k+o1*h), dst.at(s+k+2*h), dst.at(s+k+o3*h)
				x1, x2, x3, y0, y1, y2, y3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], y0[:len(x0)], y1[:len(x0)], y2[:len(x0)], y3[:len(x0)]
				if k == 0 {
					for c := range x0 {
						y0[c], y1[c], y2[c], y3[c] = butterfly4(x0[c], x1[c], x2[c], x3[c])
					}
					continue
				}
				w1, w2, w3 := tw[k][0], tw[k][1], tw[k][2]
				for c := range x0 {
					y0[c], y1[c], y2[c], y3[c] = butterfly4(x0[c], x1[c]*w1, x2[c]*w2, x3[c]*w3)
				}
			}
		}
		tw = tw[h:]
	}
}

// scratch takes a buffer of n values from pool, which holds only buffers
// of that length; the caller Puts it back.
func scratch(pool *sync.Pool, n int) *[]complex128 {
	if b, ok := pool.Get().(*[]complex128); ok {
		return b
	}
	b := make([]complex128, n)
	return &b
}

func bitRevTable(n int) []int {
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	rev := make([]int, n)
	for i := range rev {
		rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	return rev
}

// bluestein implements the chirp-z transform for arbitrary lengths via a
// power-of-two convolution.
type bluestein struct {
	n     int
	m     int // convolution length, power of two >= 2n-1
	inner *Plan
	chirp []complex128 // a_k = e^{-iπ k² / n}, k < n (forward sign)
	bfft  []complex128 // FFT of the filter b (forward chirp conjugate, wrapped)
	conv  sync.Pool    // *[]complex128 of length m: forward's convolution buffer
}

func newBluestein(n int) (*bluestein, error) {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	inner, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	bs := &bluestein{n: n, m: m, inner: inner}
	bs.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the angle argument small for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(kk) / float64(n)
		bs.chirp[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		c := cmplxConj(bs.chirp[k])
		b[k] = c
		if k > 0 {
			b[m-k] = c
		}
	}
	bs.inner.Transform(b, -1)
	bs.bfft = b
	return bs, nil
}

func cmplxConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// transform computes the length-n DFT of x (unnormalized) with the given
// sign, in place. The inverse uses the conjugation identity
// idft(x) = conj(dft(conj(x))) / n, with the 1/n applied by the caller.
func (bs *bluestein) transform(x []complex128, sign int) {
	if sign > 0 {
		for i := range x {
			x[i] = cmplxConj(x[i])
		}
		bs.forward(x)
		for i := range x {
			x[i] = cmplxConj(x[i])
		}
		return
	}
	bs.forward(x)
}

// forward computes the unnormalized forward DFT via chirp-z: multiply by
// the chirp, convolve with the chirp filter (one forward + one inverse
// power-of-two FFT), multiply by the chirp again.
func (bs *bluestein) forward(x []complex128) {
	buf := scratch(&bs.conv, bs.m)
	defer bs.conv.Put(buf)
	a := *buf
	for k := 0; k < bs.n; k++ {
		a[k] = x[k] * bs.chirp[k]
	}
	clear(a[bs.n:])
	bs.inner.Transform(a, -1)
	for i := range a {
		a[i] *= bs.bfft[i]
	}
	bs.inner.Transform(a, +1) // normalized inverse of the inner plan
	for k := 0; k < bs.n; k++ {
		x[k] = a[k] * bs.chirp[k]
	}
}

// DFTNaive is the O(n²) reference transform used by tests. sign=-1
// forward (unnormalized), sign=+1 inverse (normalized by 1/n).
func DFTNaive(x []complex128, sign int) []complex128 {
	n := len(x)
	roots := make([]complex128, n) // e^{sign·2πi·j/n}
	for j := range roots {
		s, c := math.Sincos(float64(sign) * 2 * math.Pi * float64(j) / float64(n))
		roots[j] = complex(c, s)
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * roots[k*j%n]
		}
		out[k] = s
	}
	if sign > 0 {
		for k := range out {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}
