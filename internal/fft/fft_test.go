package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func approxEqual(a, b []complex128, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	var ref float64
	for i := range a {
		ref = math.Max(ref, cmplx.Abs(a[i]))
	}
	if ref == 0 {
		ref = 1
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > eps*ref {
			return false
		}
	}
	return true
}

// deterministic pseudo-random data (no math/rand needed).
func testData(n int, seed uint64) []complex128 {
	out := make([]complex128, n)
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>11))/float64(1<<52) - 1
	}
	for i := range out {
		out[i] = complex(next(), next())
	}
	return out
}

// pow2s is every power of two from 2 to max: log2 n odd and even, which
// open with different first sweeps, and from one pass to many.
func pow2s(max int) []int {
	var ns []int
	for n := 2; n <= max; n *= 2 {
		ns = append(ns, n)
	}
	return ns
}

func TestMatchesNaiveDFT(t *testing.T) {
	for _, n := range append([]int{1, 3, 5, 7, 12, 17, 100}, pow2s(4096)...) {
		x := testData(n, uint64(n))
		want := DFTNaive(x, -1)
		got := append([]complex128(nil), x...)
		if err := transform(got, -1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !approxEqual(got, want, tol) {
			t.Errorf("n=%d: FFT != naive DFT", n)
		}
		// Inverse too.
		wantInv := DFTNaive(x, +1)
		gotInv := append([]complex128(nil), x...)
		if err := transform(gotInv, +1); err != nil {
			t.Fatalf("n=%d inverse: %v", n, err)
		}
		if !approxEqual(gotInv, wantInv, tol) {
			t.Errorf("n=%d: inverse FFT != naive inverse", n)
		}
	}
}

func TestRoundTripAllSizes(t *testing.T) {
	sizes := pow2s(4096)
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		x := testData(n, uint64(2*n+1))
		y := append([]complex128(nil), x...)
		if err := transform(y, -1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := transform(y, +1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !approxEqual(y, x, tol) {
			t.Errorf("n=%d: inverse(forward(x)) != x", n)
		}
		if err := transform(y, +1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := transform(y, -1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !approxEqual(y, x, tol) {
			t.Errorf("n=%d: forward(inverse(x)) != x", n)
		}
	}
}

// radix2 is the textbook iterative Cooley-Tukey loop the package ran
// before its radix-4 kernel — bit reversal, log2 n stages of n/2
// butterflies with a full complex multiplication each, a sweep for the
// inverse's 1/n — kept as the reference the kernel is held to.
func radix2(x []complex128, sign int) {
	n := len(x)
	for i, j := range bitRevTable(n) {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		angle := float64(sign) * 2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				u, v := x[start+k], x[start+k+half]*tw[k*step]
				x[start+k], x[start+k+half] = u+v, u-v
			}
		}
	}
	if sign > 0 {
		for i := range x {
			x[i] /= complex(float64(n), 0)
		}
	}
}

// TestRadix4WithinUlpsOfRadix2: the kernel computes what the radix-2 loop
// computed, to rounding — it swaps where that multiplied by (6e-17, −1)
// and has one rounded twiddle where that multiplied by two in turn. This
// is where "results did not move" is stated, as a tolerance.
func TestRadix4WithinUlpsOfRadix2(t *testing.T) {
	for _, n := range pow2s(1 << 16) {
		for _, sign := range []int{-1, +1} {
			x := testData(n, uint64(3*n))
			want := slices.Clone(x)
			radix2(want, sign)
			if err := transform(x, sign); err != nil {
				t.Fatal(err)
			}
			if !approxEqual(x, want, 1e-12) {
				t.Errorf("n=%d sign=%+d: radix-4 kernel differs from the radix-2 loop by more than 1e-12", n, sign)
			}
		}
	}
}

func TestImpulseAndConstant(t *testing.T) {
	const n = 16
	// Impulse -> flat spectrum of ones.
	x := make([]complex128, n)
	x[0] = 1
	if err := transform(x, -1); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > tol {
			t.Fatalf("impulse spectrum[%d] = %v", i, v)
		}
	}
	// Constant -> delta at DC of amplitude n.
	for i := range x {
		x[i] = 2
	}
	if err := transform(x, -1); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(2*n, 0)) > tol {
		t.Fatalf("DC = %v", x[0])
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(x[i]) > tol {
			t.Fatalf("non-DC bin %d = %v", i, x[i])
		}
	}
}

func TestParseval(t *testing.T) {
	for _, n := range []int{8, 12, 31, 64} {
		x := testData(n, 99)
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		if err := transform(x, -1); err != nil {
			t.Fatal(err)
		}
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE /= float64(n)
		if math.Abs(timeE-freqE) > tol*(1+timeE) {
			t.Errorf("n=%d: Parseval violated: %v vs %v", n, timeE, freqE)
		}
	}
}

// Property: linearity F(a·x + y) = a·F(x) + F(y).
func TestQuickLinearity(t *testing.T) {
	f := func(seed1, seed2 uint16, aRe, aIm int8) bool {
		const n = 24 // exercises Bluestein
		a := complex(float64(aRe)/8, float64(aIm)/8)
		x := testData(n, uint64(seed1))
		y := testData(n, uint64(seed2))
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = a*x[i] + y[i]
		}
		if err := transform(lhs, -1); err != nil {
			return false
		}
		if err := transform(x, -1); err != nil {
			return false
		}
		if err := transform(y, -1); err != nil {
			return false
		}
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = a*x[i] + y[i]
		}
		return approxEqual(lhs, rhs, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: time shift corresponds to spectral phase rotation.
func TestShiftTheorem(t *testing.T) {
	const n = 32
	x := testData(n, 7)
	shifted := make([]complex128, n)
	const s = 5
	for i := range x {
		shifted[i] = x[(i+s)%n]
	}
	fx := append([]complex128(nil), x...)
	fs := append([]complex128(nil), shifted...)
	if err := transform(fx, -1); err != nil {
		t.Fatal(err)
	}
	if err := transform(fs, -1); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		angle := 2 * math.Pi * float64(k) * float64(s) / float64(n)
		want := fx[k] * complex(math.Cos(angle), math.Sin(angle))
		if cmplx.Abs(fs[k]-want) > 1e-8*(1+cmplx.Abs(want)) {
			t.Fatalf("bin %d: got %v want %v", k, fs[k], want)
		}
	}
}

// TestConvolutionTheorem: circular convolution in time equals pointwise
// multiplication in frequency — a joint property of forward, inverse,
// and normalization conventions.
func TestConvolutionTheorem(t *testing.T) {
	for _, n := range []int{8, 12, 16, 21} {
		x := testData(n, 5)
		y := testData(n, 6)
		// Naive circular convolution.
		want := make([]complex128, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want[i] += x[j] * y[(i-j+n)%n]
			}
		}
		// FFT route: ifft(fft(x) .* fft(y)).
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		if err := transform(fx, -1); err != nil {
			t.Fatal(err)
		}
		if err := transform(fy, -1); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		for i := range got {
			got[i] = fx[i] * fy[i]
		}
		if err := transform(got, +1); err != nil {
			t.Fatal(err)
		}
		if !approxEqual(got, want, 1e-8) {
			t.Errorf("n=%d: convolution theorem violated", n)
		}
	}
}

func TestPlanForCachesAndIsConcurrent(t *testing.T) {
	p1, err := PlanFor(48)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanFor(48)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("PlanFor did not cache")
	}
	if _, err := PlanFor(0); err == nil {
		t.Fatal("PlanFor(0) accepted")
	}
	// Shared plans must be safe under concurrent transforms.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := testData(48, uint64(g))
			y := append([]complex128(nil), x...)
			for i := 0; i < 20; i++ {
				p1.Transform(y, -1)
				p1.Transform(y, +1)
			}
			if !approxEqual(x, y, 1e-8) {
				t.Errorf("goroutine %d: concurrent plan use corrupted data", g)
			}
		}(g)
	}
	wg.Wait()
}

func TestPlanReuseAndErrors(t *testing.T) {
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 8 {
		t.Fatalf("Len = %d", p.Len())
	}
	// Reuse the plan for several transforms.
	for trial := 0; trial < 3; trial++ {
		x := testData(8, uint64(trial))
		y := append([]complex128(nil), x...)
		p.Transform(y, -1)
		p.Transform(y, +1)
		if !approxEqual(x, y, tol) {
			t.Fatalf("trial %d: plan reuse broke round trip", trial)
		}
	}
	if _, err := NewPlan(0); err == nil {
		t.Error("NewPlan(0) accepted")
	}
	if _, err := NewPlan(-4); err == nil {
		t.Error("NewPlan(-4) accepted")
	}
	if err := transform(nil, -1); err == nil {
		t.Error("empty transform accepted")
	}
	// Wrong length panics (programming error).
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	p.Transform(make([]complex128, 4), -1)
}

func TestFFT2DMatchesNaive(t *testing.T) {
	const n1, n2 = 4, 6
	x := testData(n1*n2, 3)
	got := append([]complex128(nil), x...)
	if err := FFT2D(got, n1, n2, -1); err != nil {
		t.Fatal(err)
	}
	// Naive: DFT rows then columns.
	want := append([]complex128(nil), x...)
	for i := 0; i < n1; i++ {
		row := DFTNaive(want[i*n2:(i+1)*n2], -1)
		copy(want[i*n2:], row)
	}
	col := make([]complex128, n1)
	for j := 0; j < n2; j++ {
		for i := 0; i < n1; i++ {
			col[i] = want[i*n2+j]
		}
		col = DFTNaive(col, -1)
		for i := 0; i < n1; i++ {
			want[i*n2+j] = col[i]
		}
	}
	if !approxEqual(got, want, tol) {
		t.Fatal("2D FFT != naive")
	}
	if err := FFT2D(got, 3, 3, -1); err == nil {
		t.Error("bad 2D geometry accepted")
	}
}

func TestFFT3DRoundTripAndAxes(t *testing.T) {
	const n1, n2, n3 = 4, 8, 6
	x := testData(n1*n2*n3, 11)
	y := append([]complex128(nil), x...)
	if err := FFT3D(y, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}
	if err := FFT3D(y, n1, n2, n3, +1); err != nil {
		t.Fatal(err)
	}
	if !approxEqual(x, y, tol) {
		t.Fatal("3D round trip failed")
	}

	// FFT3D == TransformAxis23 then TransformAxis1.
	a := append([]complex128(nil), x...)
	if err := FFT3D(a, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}
	b := append([]complex128(nil), x...)
	if err := TransformAxis23(b, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}
	c := append([]complex128(nil), b...)
	if err := TransformAxis1(b, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}
	if !approxEqual(a, b, tol) {
		t.Fatal("phase decomposition != direct 3D FFT")
	}

	// TransformAxis1Split with rows [1, 3) at stride m+2 in a second
	// buffer == TransformAxis1, once those rows are put back.
	const m = n2 * n3
	own := Window{V: make([]complex128, 2*m+2), Stride: m + 2, Lo: 1, Hi: 3}
	for i := own.Lo; i < own.Hi; i++ {
		copy(own.V[(i-own.Lo)*own.Stride:], c[i*m:(i+1)*m])
	}
	if err := TransformAxis1Split(c, own, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}
	for i := own.Lo; i < own.Hi; i++ {
		copy(c[i*m:(i+1)*m], own.V[(i-own.Lo)*own.Stride:])
	}
	if !sameBits(c, b) {
		t.Error("TransformAxis1Split != TransformAxis1")
	}

	if err := FFT3D(x, 5, 5, 5, -1); err == nil {
		t.Error("bad 3D geometry accepted")
	}
	if err := TransformAxis23(x, 5, 5, 5, -1); err == nil {
		t.Error("bad slab geometry accepted")
	}
	if err := TransformAxis1(x, 5, 5, 5, -1); err == nil {
		t.Error("bad block geometry accepted")
	}
	for _, w := range []Window{
		{V: make([]complex128, 4*m), Stride: m, Lo: -1, Hi: 1},
		{V: make([]complex128, 4*m), Stride: m, Lo: 2, Hi: n1 + 1},
		{V: make([]complex128, 4*m), Stride: m - 1, Lo: 0, Hi: 2},
		{V: make([]complex128, 2*m-1), Stride: m, Lo: 1, Hi: 3},
	} {
		if err := TransformAxis1Split(x, w, n1, n2, n3, -1); err == nil {
			t.Errorf("window of rows [%d, %d) at stride %d in %d values accepted", w.Lo, w.Hi, w.Stride, len(w.V))
		}
	}
}

func BenchmarkFFTPow2(b *testing.B) {
	x := testData(4096, 1)
	p, _ := NewPlan(4096)
	b.SetBytes(int64(16 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(x, -1)
	}
}

func BenchmarkFFTBluestein(b *testing.B) {
	x := testData(4095, 1)
	p, _ := NewPlan(4095)
	b.SetBytes(int64(16 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(x, -1)
	}
}

func BenchmarkFFT3D32(b *testing.B) {
	const n = 32
	x := testData(n*n*n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FFT3D(x, n, n, n, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// alongAxis copies every line of the row-major array of extents dims along
// axis out, hands it to fn to transform in place, and copies it back: the
// gathered form the strided-axis kernel replaced, kept as the tests'
// reference.
func alongAxis(x []complex128, dims [3]int, axis int, fn func(line []complex128)) {
	strides := [3]int{dims[1] * dims[2], dims[2], 1}
	line := make([]complex128, dims[axis])
	for base := range x {
		if base/strides[axis]%dims[axis] != 0 {
			continue // not the first element of a line
		}
		for i := range line {
			line[i] = x[base+i*strides[axis]]
		}
		fn(line)
		for i, v := range line {
			x[base+i*strides[axis]] = v
		}
	}
}

// gatherAxis is alongAxis with Plan.Transform.
func gatherAxis(t testing.TB, x []complex128, dims [3]int, axis, sign int) {
	p, err := PlanFor(dims[axis])
	if err != nil {
		t.Fatal(err)
	}
	alongAxis(x, dims, axis, func(line []complex128) { p.Transform(line, sign) })
}

// sameValues holds got to want bit for bit on amd64, where the compiler
// fuses no multiply-add and both forms run the same instructions on each
// element, and to 1e-12 elsewhere.
func sameValues(got, want []complex128) bool {
	if runtime.GOARCH != "amd64" {
		return approxEqual(got, want, 1e-12)
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return false
		}
	}
	return len(got) == len(want)
}

// TestColumnsEqualGatheredLines: the strided-axis kernel gives every
// column what Plan.Transform gives it as a line of its own — one row and
// one column, widths on both sides of a tile edge, a length that takes the
// Bluestein path, both signs — and so it does when rows [lo, hi) of the
// block lie in a second buffer at a stride of their own: all of them (a
// pfft worker alone) and an interior run. The kernel leaves the rest of
// the second buffer, and the window's rows of the first, bit for bit as
// they were.
func TestColumnsEqualGatheredLines(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 12} {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, colTile - 1, colTile, colTile + 1, 128 * 3} {
			for _, sign := range []int{-1, +1} {
				for _, win := range [][2]int{{0, 0}, {0, n}, {n / 4, max(n/4+1, n-n/4)}} {
					lo, hi := win[0], win[1]
					x := testData(n*m, uint64(n*1000+m))
					stride := m + 3
					other := testData(n*stride, uint64(n*1000+m+7))
					block := slices.Clone(x)
					for i := lo; i < hi; i++ {
						copy(block[i*m:(i+1)*m], other[i*stride:])
					}
					want := slices.Clone(block)
					gatherAxis(t, want, [3]int{1, n, m}, 1, sign)
					x0, other0 := slices.Clone(x), slices.Clone(other)
					if hi == lo {
						p.columns(x, m, sign)
					} else {
						p.split(x, Window{V: other[lo*stride:], Stride: stride, Lo: lo, Hi: hi}, m, sign)
					}
					got := slices.Clone(x)
					for i := lo; i < hi; i++ {
						copy(got[i*m:(i+1)*m], other[i*stride:])
						copy(other[i*stride:i*stride+m], other0[i*stride:]) // the rest is checked below
					}
					if !sameValues(got, want) {
						t.Errorf("n=%d m=%d sign=%+d rows [%d, %d) apart: columns differs from the gathered lines", n, m, sign, lo, hi)
					}
					for i := lo; i < hi; i++ {
						if !sameBits(x[i*m:(i+1)*m], x0[i*m:(i+1)*m]) {
							t.Errorf("n=%d m=%d sign=%+d: row %d of the first buffer, in the window [%d, %d), was written", n, m, sign, i, lo, hi)
						}
					}
					if !sameBits(other, other0) {
						t.Errorf("n=%d m=%d sign=%+d: the second buffer was written outside the window [%d, %d)", n, m, sign, lo, hi)
					}
				}
			}
		}
	}
}

// sameBits holds got to want bit for bit on every target.
func sameBits(got, want []complex128) bool {
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return false
		}
	}
	return len(got) == len(want)
}

// TestMultiAxisEqualGathered: FFT2D, FFT3D, TransformAxis23 and
// TransformAxis1 are the gathered transforms of their axes, innermost axis
// first — bitwise on amd64, so results did not move when the gathers went —
// and FFT3D of an odd shape is the naive DFT along each axis.
func TestMultiAxisEqualGathered(t *testing.T) {
	for _, d := range [][3]int{{8, 4, 16}, {2, 64, 2}, {12, 12, 10}, {3, 8, 5}} {
		n1, n2, n3 := d[0], d[1], d[2]
		for _, sign := range []int{-1, +1} {
			x := testData(n1*n2*n3, uint64(n1+n2+n3))
			run := func(name string, axes []int, fn func(x []complex128) error) {
				t.Helper()
				got, want := slices.Clone(x), slices.Clone(x)
				if err := fn(got); err != nil {
					t.Fatal(err)
				}
				for _, axis := range axes {
					gatherAxis(t, want, d, axis, sign)
				}
				if !sameValues(got, want) {
					t.Errorf("%s %v sign=%+d differs from the gathered form", name, d, sign)
				}
			}
			run("FFT3D", []int{2, 1, 0}, func(x []complex128) error { return FFT3D(x, n1, n2, n3, sign) })
			run("TransformAxis23", []int{2, 1}, func(x []complex128) error { return TransformAxis23(x, n1, n2, n3, sign) })
			run("TransformAxis1", []int{0}, func(x []complex128) error { return TransformAxis1(x, n1, n2, n3, sign) })
			run("FFT2D", []int{2, 1}, func(x []complex128) error {
				for i := 0; i < n1; i++ {
					if err := FFT2D(x[i*n2*n3:(i+1)*n2*n3], n2, n3, sign); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}

	const n1, n2, n3 = 3, 5, 6
	x := testData(n1*n2*n3, 5)
	want := slices.Clone(x)
	for axis := range 3 {
		alongAxis(want, [3]int{n1, n2, n3}, axis, func(line []complex128) { copy(line, DFTNaive(line, -1)) })
	}
	if err := FFT3D(x, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}
	if !approxEqual(x, want, tol) {
		t.Error("FFT3D of a 3x5x6 array is not the naive DFT along each axis")
	}
}

// TestMultiAxisAllocatesNothing: power-of-two transforms take no scratch,
// and the Bluestein and gathered-column buffers of the others are recycled
// by their plans.
func TestMultiAxisAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	for _, d := range [][3]int{{8, 16, 8}, {12, 12, 10}} {
		n1, n2, n3 := d[0], d[1], d[2]
		x := testData(n1*n2*n3, 9)
		allocs := testing.AllocsPerRun(10, func() {
			_ = FFT3D(x, n1, n2, n3, -1)
			_ = TransformAxis23(x, n1, n2, n3, +1)
			_ = TransformAxis1(x, n1, n2, n3, +1)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocations per FFT3D + TransformAxis23 + TransformAxis1, want 0", d, allocs)
		}
	}
}

func BenchmarkColumns(b *testing.B) {
	for _, m := range []int{128, 128 * 128} {
		b.Run(fmt.Sprint("128x", m), func(b *testing.B) {
			x := testData(128*m, 1)
			p, _ := PlanFor(128)
			b.SetBytes(int64(16 * len(x)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.columns(x, m, -1)
			}
		})
	}
}

// BenchmarkLines is BenchmarkColumns' 128×128 plane along its contiguous
// axis, so the costs of the two axes of a plane can be read side by side.
func BenchmarkLines(b *testing.B) {
	x := testData(128*128, 1)
	p, _ := PlanFor(128)
	b.SetBytes(int64(16 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.lines(x, -1)
	}
}

// transform runs x through the shared plan of its length.
func transform(x []complex128, sign int) error {
	p, err := PlanFor(len(x))
	if err != nil {
		return err
	}
	p.Transform(x, sign)
	return nil
}
