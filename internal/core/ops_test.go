package core_test

import (
	"math"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
)

// buildPair creates two conformant arrays over separate device sets on a
// shared cluster: a on machines [0,devices), b on the same machines but
// distinct device processes.
func buildPair(t testing.TB, devices, N, n int) (*core.Array, *core.Array, func()) {
	t.Helper()
	cl, err := cluster.NewLocal(devices, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	grid := N / n
	pmA, err := core.NewRoundRobinMap(grid, grid, grid, devices)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	// Different layout for b on purpose: Dot/Axpy must work across maps.
	pmB, err := core.NewPageMap("blocked", grid, grid, grid, devices)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	machines := make([]int, devices)
	for i := range machines {
		machines[i] = i
	}
	storageA, err := core.CreateBlockStorage(bg, cl.Client(), machines, "a", pmA.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	storageB, err := core.CreateBlockStorage(bg, cl.Client(), machines, "b", pmB.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	a, err := core.NewArray(bg, storageA, pmA, N, N, N, n, n, n)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	b, err := core.NewArray(bg, storageB, pmB, N, N, N, n, n, n)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	return a, b, func() {
		storageA.Close(bg)
		storageB.Close(bg)
		cl.Shutdown()
	}
}

func TestDotAgainstShadow(t *testing.T) {
	const N, n = 8, 4
	a, b, done := buildPair(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)

	av := make([]float64, full.Size())
	bv := make([]float64, full.Size())
	for i := range av {
		av[i] = float64(i%11) - 5
		bv[i] = float64(i%7) - 3
	}
	if err := a.Write(bg, av, full); err != nil {
		t.Fatalf("write a: %v", err)
	}
	if err := b.Write(bg, bv, full); err != nil {
		t.Fatalf("write b: %v", err)
	}

	doms := []core.Domain{
		full,
		core.NewDomain(0, 4, 0, 4, 0, 4), // single full page
		core.NewDomain(1, 7, 2, 6, 3, 8), // partial pages
		core.NewDomain(2, 2, 0, 4, 0, 4), // empty
	}
	for _, dom := range doms {
		got, err := a.Dot(bg, b, dom)
		if err != nil {
			t.Fatalf("dot %v: %v", dom, err)
		}
		// Shadow.
		var want float64
		d2 := dom.Hi[1] - dom.Lo[1]
		d3 := dom.Hi[2] - dom.Lo[2]
		_ = d2
		_ = d3
		for i := dom.Lo[0]; i < dom.Hi[0]; i++ {
			for j := dom.Lo[1]; j < dom.Hi[1]; j++ {
				for k := dom.Lo[2]; k < dom.Hi[2]; k++ {
					idx := (i*N+j)*N + k
					want += av[idx] * bv[idx]
				}
			}
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("dot %v = %v, want %v", dom, got, want)
		}
	}
}

func TestDotSelfAndNorm(t *testing.T) {
	const N, n = 8, 4
	a, _, done := buildPair(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)
	if err := a.Fill(bg, full, 2); err != nil {
		t.Fatalf("fill: %v", err)
	}
	// <a, a> with itself: exercises the same-process fetch fast path.
	s, err := a.Dot(bg, a, full)
	if err != nil {
		t.Fatalf("self dot: %v", err)
	}
	if want := 4.0 * float64(full.Size()); math.Abs(s-want) > 1e-9 {
		t.Fatalf("self dot = %v, want %v", s, want)
	}
	norm, err := a.Norm2(bg, full)
	if err != nil {
		t.Fatalf("norm: %v", err)
	}
	if want := math.Sqrt(4 * float64(full.Size())); math.Abs(norm-want) > 1e-9 {
		t.Fatalf("norm = %v, want %v", norm, want)
	}
}

func TestAxpyAgainstShadow(t *testing.T) {
	const N, n = 8, 4
	a, b, done := buildPair(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)

	av := make([]float64, full.Size())
	bv := make([]float64, full.Size())
	for i := range av {
		av[i] = float64(i % 5)
		bv[i] = float64(i % 3)
	}
	if err := a.Write(bg, av, full); err != nil {
		t.Fatalf("write a: %v", err)
	}
	if err := b.Write(bg, bv, full); err != nil {
		t.Fatalf("write b: %v", err)
	}

	// Full-page domain plus a straddling one, applied in sequence.
	const alpha = -1.5
	doms := []core.Domain{
		core.NewDomain(0, 8, 0, 4, 0, 8), // whole pages
		core.NewDomain(1, 6, 1, 8, 2, 7), // partial
	}
	shadow := append([]float64(nil), av...)
	for _, dom := range doms {
		if err := a.Axpy(bg, alpha, b, dom); err != nil {
			t.Fatalf("axpy %v: %v", dom, err)
		}
		for i := dom.Lo[0]; i < dom.Hi[0]; i++ {
			for j := dom.Lo[1]; j < dom.Hi[1]; j++ {
				for k := dom.Lo[2]; k < dom.Hi[2]; k++ {
					idx := (i*N+j)*N + k
					shadow[idx] += alpha * bv[idx]
				}
			}
		}
	}
	got := make([]float64, full.Size())
	if err := a.Read(bg, got, full); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-shadow[i]) > 1e-12 {
			t.Fatalf("element %d = %v, want %v", i, got[i], shadow[i])
		}
	}
	// b must be untouched.
	gotB := make([]float64, full.Size())
	if err := b.Read(bg, gotB, full); err != nil {
		t.Fatalf("read b: %v", err)
	}
	for i := range gotB {
		if gotB[i] != bv[i] {
			t.Fatalf("axpy mutated operand b at %d", i)
		}
	}
}

func TestOpsSequentialModeParity(t *testing.T) {
	const N, n = 8, 4
	a, b, done := buildPair(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)
	if err := a.Fill(bg, full, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Fill(bg, full, 2); err != nil {
		t.Fatal(err)
	}
	pipelined, err := a.Dot(bg, b, full)
	if err != nil {
		t.Fatal(err)
	}
	a.SetWindow(1)
	sequential, err := a.Dot(bg, b, full)
	if err != nil {
		t.Fatal(err)
	}
	if pipelined != sequential {
		t.Fatalf("dot differs across modes: %v vs %v", pipelined, sequential)
	}
	if err := a.Axpy(bg, 1, b, full); err != nil { // sequential-mode axpy
		t.Fatal(err)
	}
	s, err := a.Sum(bg, full)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5.0 * float64(full.Size()); math.Abs(s-want) > 1e-9 {
		t.Fatalf("after axpy sum = %v, want %v", s, want)
	}
}

func TestOpsConformanceErrors(t *testing.T) {
	const N, n = 8, 4
	a, _, done := buildPair(t, 2, N, n)
	defer done()
	// A non-conformant partner: different page size.
	other, _, done2 := buildPair(t, 2, 8, 2)
	defer done2()

	if _, err := a.Dot(bg, other, core.Box(8, 8, 8)); err == nil {
		t.Error("non-conformant dot accepted")
	}
	if err := a.Axpy(bg, 1, other, core.Box(8, 8, 8)); err == nil {
		t.Error("non-conformant axpy accepted")
	}
	if _, err := a.Dot(bg, a, core.NewDomain(0, 99, 0, 1, 0, 1)); err == nil {
		t.Error("out-of-bounds dot accepted")
	}
}
