package core_test

import (
	"math"
	"math/rand"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
)

// buildOwnerArray builds an Array ready for JacobiOwner: striped layout
// (plane-aligned by construction) with the second page bank
// (2×PagesPerDevice capacity per device).
func buildOwnerArray(t testing.TB, devices, N, n int) (*core.Array, func()) {
	t.Helper()
	cl, err := cluster.NewLocal(devices, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	pm, err := core.NewStripedMap(N/n, N/n, N/n, devices)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("pagemap: %v", err)
	}
	machines := make([]int, devices)
	for i := range machines {
		machines[i] = i
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), machines, "own", 2*pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("storage: %v", err)
	}
	arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("array: %v", err)
	}
	return arr, func() {
		storage.Close(bg)
		cl.Shutdown()
	}
}

// TestJacobiOwnerMatchesClientAndLocal is the semantic-equivalence
// gate: the owner-computes solver must agree with the client-side
// solver and the single-machine reference, residuals and every element.
// On the hot-face seed they agree to 1e-12. On a grid of seeded random
// values they agree bit for bit: every sum there depends on the order
// of its six addends, so a stencil that adds them in another order than
// JacobiLocal fails.
func TestJacobiOwnerMatchesClientAndLocal(t *testing.T) {
	const N, n = 8, 2 // 4 page-planes over 2 devices: planes share devices
	random := func(N int) []float64 {
		r := rand.New(rand.NewSource(39))
		u := make([]float64, N*N*N)
		for i := range u {
			u[i] = r.Float64()*200 - 100
		}
		return u
	}
	for _, seed := range []struct {
		name    string
		grid    func(N int) []float64
		bitwise bool
	}{{"hot face", seedHotFace, false}, {"random", random, true}} {
		// same reports whether x and y agree as the seed demands.
		same := func(x, y float64) bool {
			if seed.bitwise {
				return math.Float64bits(x) == math.Float64bits(y)
			}
			return math.Abs(x-y) <= 1e-12
		}
		for _, iters := range []int{1, 2, 5} {
			owner, doneO := buildOwnerArray(t, 2, N, n)
			a, b, doneC := buildPair(t, 2, N, n)

			u := seed.grid(N)
			full := core.Box(N, N, N)
			if err := owner.Write(bg, u, full); err != nil {
				t.Fatalf("seed owner: %v", err)
			}
			if err := a.Write(bg, u, full); err != nil {
				t.Fatalf("seed client: %v", err)
			}

			ownRes, err := core.JacobiOwner(bg, owner, iters)
			if err != nil {
				t.Fatalf("%s iters=%d JacobiOwner: %v", seed.name, iters, err)
			}
			cliRes, err := core.Jacobi(bg, a, b, iters, 2)
			if err != nil {
				t.Fatalf("%s iters=%d Jacobi: %v", seed.name, iters, err)
			}
			want := seed.grid(N)
			locRes := core.JacobiLocal(want, N, N, N, iters)

			if !same(ownRes, cliRes) || !same(ownRes, locRes) {
				t.Fatalf("%s iters=%d residuals: owner %v client %v local %v", seed.name, iters, ownRes, cliRes, locRes)
			}
			gotOwn := make([]float64, full.Size())
			if err := owner.Read(bg, gotOwn, full); err != nil {
				t.Fatalf("read owner: %v", err)
			}
			gotCli := make([]float64, full.Size())
			if err := a.Read(bg, gotCli, full); err != nil {
				t.Fatalf("read client: %v", err)
			}
			for i := range want {
				if !same(gotOwn[i], want[i]) {
					t.Fatalf("%s iters=%d element %d: owner %v, local %v", seed.name, iters, i, gotOwn[i], want[i])
				}
				if !same(gotOwn[i], gotCli[i]) {
					t.Fatalf("%s iters=%d element %d: owner %v, client %v", seed.name, iters, i, gotOwn[i], gotCli[i])
				}
			}
			doneO()
			doneC()
		}
	}
}

// Owner-computes Jacobi where several page-planes share one device
// (P1 > devices): halo pulls include the same-device fast path.
func TestJacobiOwnerMorePlanesThanDevices(t *testing.T) {
	const N, n = 8, 2 // 4 planes on 3 devices
	owner, done := buildOwnerArray(t, 3, N, n)
	defer done()
	full := core.Box(N, N, N)
	if err := owner.Write(bg, seedHotFace(N), full); err != nil {
		t.Fatal(err)
	}
	res, err := core.JacobiOwner(bg, owner, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := seedHotFace(N)
	wantRes := core.JacobiLocal(want, N, N, N, 3)
	if math.Abs(res-wantRes) > 1e-12 {
		t.Fatalf("residual %v != %v", res, wantRes)
	}
	got := make([]float64, full.Size())
	if err := owner.Read(bg, got, full); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("element %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestJacobiOwnerRequiresPlaneAlignedMap(t *testing.T) {
	// roundrobin splits page-planes across devices.
	arr, done := buildArray(t, "roundrobin", 3, 8, 8, 8, 2, 2, 2)
	defer done()
	if _, err := core.JacobiOwner(bg, arr, 1); err == nil {
		t.Fatal("plane-splitting layout accepted")
	}
}

func TestJacobiOwnerRequiresScratchBank(t *testing.T) {
	// buildArray allocates exactly PagesPerDevice — no second bank.
	arr, done := buildArray(t, "striped", 2, 8, 8, 8, 2, 2, 2)
	defer done()
	if _, err := core.JacobiOwner(bg, arr, 1); err == nil {
		t.Fatal("missing scratch bank accepted")
	}
}

// CopyFrom moves a subdomain device-to-device; the result must match a
// client-side read of the source.
func TestCopyFromOwner(t *testing.T) {
	a, b, done := buildPair(t, 3, 8, 4)
	defer done()
	full := core.Box(8, 8, 8)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i%17) - 5
	}
	if err := b.Write(bg, src, full); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if err := a.Fill(bg, full, -1); err != nil {
		t.Fatalf("fill: %v", err)
	}

	// A page-straddling subdomain: partial boxes on both sides.
	dom := core.NewDomain(1, 7, 2, 8, 0, 5)
	if err := a.CopyFrom(bg, b, dom); err != nil {
		t.Fatalf("copyfrom: %v", err)
	}
	got := make([]float64, full.Size())
	if err := a.Read(bg, got, full); err != nil {
		t.Fatalf("read: %v", err)
	}
	ref := newShadow(8, 8, 8)
	for i := range ref.data {
		ref.data[i] = -1
	}
	refSrc := newShadow(8, 8, 8)
	refSrc.write(src, full)
	ref.write(refSrc.read(dom), dom)
	for i := range got {
		if got[i] != ref.data[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], ref.data[i])
		}
	}

	// Conformance and bounds are enforced.
	other, _, done2 := buildPair(t, 2, 8, 2)
	defer done2()
	if err := a.CopyFrom(bg, other, dom); err == nil {
		t.Error("non-conformant CopyFrom accepted")
	}
	if err := a.CopyFrom(bg, b, core.NewDomain(0, 16, 0, 8, 0, 8)); err == nil {
		t.Error("out-of-bounds CopyFrom accepted")
	}
	// Empty domain is a no-op.
	if err := a.CopyFrom(bg, b, core.NewDomain(3, 3, 0, 8, 0, 8)); err != nil {
		t.Errorf("empty CopyFrom: %v", err)
	}
}

// Kernel names are wire identifiers registered once per process — like
// class registration, this lives in init so repeated test runs
// (-count>1) don't re-register.
func init() {
	kernel.RegisterMap("test.negate", kernel.Map{Fn: func(row, _ []float64) {
		for i := range row {
			row[i] = -row[i]
		}
	}})
	kernel.RegisterReduce("test.count-negative", kernel.Reduce{
		Width: 1,
		Init:  func(acc, _ []float64) { acc[0] = 0 },
		Row: func(acc, row, _ []float64) {
			for _, v := range row {
				if v < 0 {
					acc[0]++
				}
			}
		},
		Merge: func(acc, other []float64) { acc[0] += other[0] },
	})
}

// The Apply/Reduce escape hatch executes user-registered kernels on the
// devices.
func TestUserKernels(t *testing.T) {
	arr, done := buildArray(t, "roundrobin", 2, 8, 4, 4, 4, 2, 2)
	defer done()
	full := core.Box(8, 4, 4)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i) - 60 // 60 negative values
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatal(err)
	}
	dom := core.NewDomain(1, 7, 0, 4, 1, 3) // straddles pages
	if err := arr.Apply(bg, dom, "test.negate"); err != nil {
		t.Fatalf("apply: %v", err)
	}
	ref := newShadow(8, 4, 4)
	ref.write(src, full)
	neg := ref.read(dom)
	for i := range neg {
		neg[i] = -neg[i]
	}
	ref.write(neg, dom)
	got := make([]float64, full.Size())
	if err := arr.Read(bg, got, full); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != ref.data[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], ref.data[i])
		}
	}

	acc, n, err := arr.Reduce(bg, full, "test.count-negative")
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if n != int64(full.Size()) {
		t.Fatalf("folded %d elements, want %d", n, full.Size())
	}
	wantNeg := 0.0
	for _, v := range ref.data {
		if v < 0 {
			wantNeg++
		}
	}
	if acc[0] != wantNeg {
		t.Fatalf("count-negative = %v, want %v", acc[0], wantNeg)
	}

	// Unknown kernels and missing parameters fail fast, client-side,
	// before any page is touched.
	if err := arr.Apply(bg, full, "test.unregistered"); err == nil {
		t.Error("unknown map kernel accepted")
	}
	if _, _, err := arr.Reduce(bg, full, "test.unregistered"); err == nil {
		t.Error("unknown reduce kernel accepted")
	}
	if err := arr.Apply(bg, full, kernel.Fill); err == nil {
		t.Error("fill with no params accepted")
	}
	if err := arr.ApplyBinary(bg, full, kernel.Axpy, arr); err == nil {
		t.Error("axpy with no params accepted")
	}
}

// Reductions over empty domains return the kernel identity with a zero
// count, and never merge identity partials into real ones.
func TestReduceEmptyDomain(t *testing.T) {
	arr, done := buildArray(t, "roundrobin", 2, 8, 4, 4, 4, 2, 2)
	defer done()
	empty := core.NewDomain(3, 3, 0, 4, 0, 4)
	acc, n, err := arr.Reduce(bg, empty, kernel.MinMax)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !math.IsInf(acc[0], 1) || !math.IsInf(acc[1], -1) {
		t.Fatalf("empty minmax = %v (n=%d)", acc, n)
	}
	s, err := arr.Sum(bg, empty)
	if err != nil || s != 0 {
		t.Fatalf("empty Sum = %v, %v", s, err)
	}
}

// Norm2, Dot and Axpy on the owner-computes path against the shadow
// model, with the two arrays on different layouts over one cluster —
// real device-to-device operand pulls between distinct device sets.
func TestBinaryKernelsAcrossLayouts(t *testing.T) {
	cl, err := cluster.NewLocal(3, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	mk := func(layout string, devices int) *core.Array {
		pm, err := core.NewPageMap(layout, 2, 2, 2, devices)
		if err != nil {
			t.Fatalf("pagemap: %v", err)
		}
		machines := make([]int, devices)
		for i := range machines {
			machines[i] = i
		}
		storage, err := core.CreateBlockStorage(bg, cl.Client(), machines, layout, pm.PagesPerDevice(), 4, 4, 4, pagedev.DiskPrivate)
		if err != nil {
			t.Fatalf("storage: %v", err)
		}
		t.Cleanup(func() { storage.Close(bg) })
		arr, err := core.NewArray(bg, storage, pm, 8, 8, 8, 4, 4, 4)
		if err != nil {
			t.Fatalf("array: %v", err)
		}
		return arr
	}
	a := mk("roundrobin", 3)
	b := mk("blocked", 2)

	full := core.Box(8, 8, 8)
	va := make([]float64, full.Size())
	vb := make([]float64, full.Size())
	for i := range va {
		va[i] = float64(i%13) - 6
		vb[i] = float64(i%7) - 3
	}
	if err := a.Write(bg, va, full); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(bg, vb, full); err != nil {
		t.Fatal(err)
	}

	dom := core.NewDomain(1, 8, 0, 7, 2, 8) // partial pages everywhere
	got, err := a.Dot(bg, b, dom)
	if err != nil {
		t.Fatalf("dot: %v", err)
	}
	refA := newShadow(8, 8, 8)
	refA.write(va, full)
	refB := newShadow(8, 8, 8)
	refB.write(vb, full)
	want := 0.0
	sa, sb := refA.read(dom), refB.read(dom)
	for i := range sa {
		want += sa[i] * sb[i]
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("dot = %v, want %v", got, want)
	}

	n2, err := a.Norm2(bg, dom)
	if err != nil {
		t.Fatalf("norm2: %v", err)
	}
	wantN2 := 0.0
	for _, v := range sa {
		wantN2 += v * v
	}
	wantN2 = math.Sqrt(wantN2)
	if math.Abs(n2-wantN2) > 1e-9*(1+wantN2) {
		t.Fatalf("norm2 = %v, want %v", n2, wantN2)
	}

	if err := a.Axpy(bg, 2.5, b, dom); err != nil {
		t.Fatalf("axpy: %v", err)
	}
	for i := range sa {
		sa[i] += 2.5 * sb[i]
	}
	refA.write(sa, dom)
	gotA := make([]float64, full.Size())
	if err := a.Read(bg, gotA, full); err != nil {
		t.Fatal(err)
	}
	for i := range gotA {
		if gotA[i] != refA.data[i] {
			t.Fatalf("axpy element %d = %v, want %v", i, gotA[i], refA.data[i])
		}
	}
}
