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
// algorithm, run after the transpose has made axis 1 node-local.
func TransformAxis1(x []complex128, n1, n2, n3 int, sign int) error {
	if len(x) != n1*n2*n3 {
		return fmt.Errorf("fft: block has %d elements, want %dx%dx%d", len(x), n1, n2, n3)
	}
	p1, err := PlanFor(n1)
	if err != nil {
		return err
	}
	p1.columns(x, n2*n3, sign)
	return nil
}
