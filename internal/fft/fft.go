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
// A line along the last axis of a row-major array is contiguous and goes
// through Plan.Transform where it lies. A line along any other axis is a
// column of an n×m block — n the axis, m the product of the extents after
// it — and is never copied out: Plan.columns runs the radix-2 butterflies
// on runs of adjacent columns, row segment against row segment, in tiles
// narrow enough to stay in cache. Each element sees the operations
// Transform would apply to its column, in the same order, so the results
// are the gathered form's bit for bit. FFT2D (m = n2), FFT3D (m = n3 within
// each i1-plane, then m = n2·n3) and TransformAxis1 (m = n2·n3) are the
// callers; pfft's workers reach it one plane at a time, through FFT2D on
// an i1-plane (m = n3) and TransformAxis1 on an i2-plane (n2 = 1, m = n3).
// Lengths that are not powers of two take Bluestein's algorithm line by
// line, with the scratch of both forms recycled by the plan.
//
// Conventions: sign=-1 is the forward transform, sign=+1 the inverse;
// the inverse is normalized by 1/N, so Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Forward transforms x in place with sign -1.
func Forward(x []complex128) error { return Transform(x, -1) }

// Inverse transforms x in place with sign +1 and 1/N normalization.
func Inverse(x []complex128) error { return Transform(x, +1) }

// Transform runs an in-place 1D FFT of any length (radix-2 for powers of
// two, Bluestein otherwise).
func Transform(x []complex128, sign int) error {
	p, err := PlanFor(len(x))
	if err != nil {
		return err
	}
	p.Transform(x, sign)
	return nil
}

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
	// radix-2 tables
	rev []int        // bit-reversal permutation
	tw  []complex128 // twiddles e^{-2πi k / n}, k < n/2
	// Bluestein tables (nil for powers of two)
	bs *bluestein
	// line recycles the length-n column buffer of columns' gathered form,
	// which only a non-power-of-two plan takes.
	line sync.Pool // *[]complex128
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
		p.tw = twiddles(n)
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
	if p.n == 1 {
		return
	}
	if p.pow2 {
		p.radix2(x, sign)
	} else {
		p.bs.transform(x, sign)
	}
	if sign > 0 {
		scale := 1 / float64(p.n)
		for i := range x {
			x[i] = complex(real(x[i])*scale, imag(x[i])*scale)
		}
	}
}

// radix2 is the iterative Cooley-Tukey kernel.
func (p *Plan) radix2(x []complex128, sign int) {
	n := p.n
	for i, j := range p.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tIdx := 0
			for k := start; k < start+half; k++ {
				w := p.tw[tIdx]
				if sign > 0 {
					w = complex(real(w), -imag(w))
				}
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
				tIdx += step
			}
		}
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
// transforms. It is radix2 with a run of adjacent columns where radix2 has
// one value — bit reversal swaps row segments, a butterfly is
// a[c], b[c] = a[c]+b[c]*w, a[c]-b[c]*w over two row segments with one
// twiddle — so no column is ever gathered into a line of its own, and each
// element sees the operations of Transform on its column in the same
// order. A plan that is not a power of two has no butterflies to run
// side by side: it gathers each column into pooled scratch and calls
// Transform.
func (p *Plan) columns(x []complex128, m, sign int) {
	n := p.n
	if len(x) != n*m {
		panic(fmt.Sprintf("fft: plan length %d, block of %d is not %d columns", n, len(x), m))
	}
	if n == 1 {
		return
	}
	if !p.pow2 {
		col := scratch(&p.line, n)
		for c := 0; c < m; c++ {
			for i := range *col {
				(*col)[i] = x[i*m+c]
			}
			p.Transform(*col, sign)
			for i, v := range *col {
				x[i*m+c] = v
			}
		}
		p.line.Put(col)
		return
	}
	scale := 1 / float64(n)
	for c0 := 0; c0 < m; c0 += colTile {
		run := min(colTile, m-c0)
		row := func(i int) []complex128 { return x[i*m+c0 : i*m+c0+run] }
		for i, j := range p.rev {
			if j > i {
				a, b := row(i), row(j)
				b = b[:len(a)]
				for c := range a {
					a[c], b[c] = b[c], a[c]
				}
			}
		}
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			step := n / size
			for start := 0; start < n; start += size {
				tIdx := 0
				for k := start; k < start+half; k++ {
					w := p.tw[tIdx]
					if sign > 0 {
						w = complex(real(w), -imag(w))
					}
					a, b := row(k), row(k+half)
					b = b[:len(a)]
					for c := range a {
						u := a[c]
						v := b[c] * w
						a[c] = u + v
						b[c] = u - v
					}
					tIdx += step
				}
			}
		}
		if sign > 0 {
			for i := 0; i < n; i++ {
				a := row(i)
				for c, v := range a {
					a[c] = complex(real(v)*scale, imag(v)*scale)
				}
			}
		}
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

func twiddles(n int) []complex128 {
	tw := make([]complex128, n/2)
	for k := range tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	return tw
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
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := float64(sign) * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * complex(math.Cos(angle), math.Sin(angle))
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
