package fft

import "fmt"

// FFT2D transforms a flat row-major n1×n2 array in place along both axes.
func FFT2D(x []complex128, n1, n2 int, sign int) error {
	if len(x) != n1*n2 {
		return fmt.Errorf("fft: 2D buffer has %d elements, want %dx%d", len(x), n1, n2)
	}
	p2, err := PlanFor(n2)
	if err != nil {
		return err
	}
	p1, err := PlanFor(n1)
	if err != nil {
		return err
	}
	p2.lines(x, sign)
	p1.columns(x, n2, sign)
	return nil
}

// FFT3D transforms a flat row-major n1×n2×n3 array in place along all
// three axes — the reference local implementation the distributed pfft
// result is checked against. It is the two phases of the distributed
// algorithm one after the other: both axes of an i1-plane while the plane
// is in cache, then the first axis.
func FFT3D(x []complex128, n1, n2, n3 int, sign int) error {
	if len(x) != n1*n2*n3 {
		return fmt.Errorf("fft: 3D buffer has %d elements, want %dx%dx%d", len(x), n1, n2, n3)
	}
	if err := TransformAxis23(x, n1, n2, n3, sign); err != nil {
		return err
	}
	return TransformAxis1(x, n1, n2, n3, sign)
}

// TransformAxis23 applies the 2D transform over axes 2 and 3 to every
// i1-plane of a flat n1×n2×n3 slab. It is phase 1 of the distributed
// algorithm, which an FFT worker process runs plane by plane: FFT2D on
// each i1-plane of its local slab.
func TransformAxis23(x []complex128, n1, n2, n3 int, sign int) error {
	if len(x) != n1*n2*n3 {
		return fmt.Errorf("fft: slab has %d elements, want %dx%dx%d", len(x), n1, n2, n3)
	}
	for i := 0; i < n1; i++ {
		if err := FFT2D(x[i*n2*n3:(i+1)*n2*n3], n2, n3, sign); err != nil {
			return err
		}
	}
	return nil
}

// TransformAxis1 applies length-n1 transforms along the first axis of a
// flat n1×n2×n3 block (stride n2*n3) — phase 3 of the distributed
// algorithm, run after the transpose has made axis 1 node-local. It is
// TransformAxis1Split with no row in a window.
func TransformAxis1(x []complex128, n1, n2, n3 int, sign int) error {
	return TransformAxis1Split(x, Window{}, n1, n2, n3, sign)
}

// TransformAxis1Split is TransformAxis1 on a block split between two
// buffers: its rows i1 in [own.Lo, own.Hi), n2·n3 values each, lie in
// own.V, row i1 at (i1-own.Lo)*own.Stride, and are transformed there; x
// holds the others, and its own rows in the window are not touched. A pfft
// worker's back phase passes the rows of its own block this way, where they
// lie in its slab.
func TransformAxis1Split(x []complex128, own Window, n1, n2, n3 int, sign int) error {
	if len(x) != n1*n2*n3 {
		return fmt.Errorf("fft: block has %d elements, want %dx%dx%d", len(x), n1, n2, n3)
	}
	if m := n2 * n3; own.Hi > own.Lo && (own.Lo < 0 || own.Hi > n1 || own.Stride < m || len(own.V) < (own.Hi-own.Lo-1)*own.Stride+m) {
		return fmt.Errorf("fft: window of rows [%d, %d) at stride %d in %d values, for a block of %d rows of %d", own.Lo, own.Hi, own.Stride, len(own.V), n1, m)
	}
	p1, err := PlanFor(n1)
	if err != nil {
		return err
	}
	p1.split(x, own, n2*n3, sign)
	return nil
}
