package kernel

import (
	"math"
	"sync"
	"testing"
)

func TestBuiltinMapKernels(t *testing.T) {
	row := []float64{1, 2, 3}
	fill, err := LookupMap(Fill, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if !fill.Overwrites {
		t.Error("fill should declare Overwrites")
	}
	fill.Fn(row, []float64{7})
	for _, v := range row {
		if v != 7 {
			t.Fatalf("fill: %v", row)
		}
	}
	scale, _ := LookupMap(Scale, []float64{-2})
	scale.Fn(row, []float64{-2})
	if row[0] != -14 {
		t.Fatalf("scale: %v", row)
	}
	addc, _ := LookupMap(AddC, []float64{14})
	addc.Fn(row, []float64{14})
	if row[1] != 0 {
		t.Fatalf("addc: %v", row)
	}
}

// Parameterized kernels declare their arity; lookups reject short
// parameter vectors on both sides of the wire, so a forgotten param is
// a prompt typed error instead of a device-side panic.
func TestLookupValidatesArity(t *testing.T) {
	if _, err := LookupMap(Fill, nil); err == nil {
		t.Error("fill accepted zero params")
	}
	if _, err := LookupMap(Scale, []float64{}); err == nil {
		t.Error("scale accepted zero params")
	}
	if _, err := LookupBinary(Axpy, nil); err == nil {
		t.Error("axpy accepted zero params")
	}
	// Zero-arity kernels accept anything.
	if _, err := LookupReduce(Sum, nil); err != nil {
		t.Errorf("sum rejected nil params: %v", err)
	}
	if _, err := LookupBinary(Copy, nil); err != nil {
		t.Errorf("copy rejected nil params: %v", err)
	}
	// Extra params are fine.
	if _, err := LookupMap(Fill, []float64{1, 2, 3}); err != nil {
		t.Errorf("fill rejected extra params: %v", err)
	}
}

func TestBuiltinReduceKernels(t *testing.T) {
	sum, err := LookupReduce(Sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := sum.NewAcc(nil)
	sum.Row(acc, []float64{1, 2, 3}, nil)
	other := sum.NewAcc(nil)
	sum.Row(other, []float64{4}, nil)
	sum.Merge(acc, other)
	if acc[0] != 10 {
		t.Fatalf("sum = %v", acc)
	}

	mm, _ := LookupReduce(MinMax, nil)
	acc = mm.NewAcc(nil)
	if !math.IsInf(acc[0], 1) || !math.IsInf(acc[1], -1) {
		t.Fatalf("minmax identity = %v", acc)
	}
	mm.Row(acc, []float64{3, -1, 2}, nil)
	if acc[0] != -1 || acc[1] != 3 {
		t.Fatalf("minmax = %v", acc)
	}

	sq, _ := LookupReduce(SumSq, nil)
	acc = sq.NewAcc(nil)
	sq.Row(acc, []float64{3, 4}, nil)
	if acc[0] != 25 {
		t.Fatalf("sumsq = %v", acc)
	}

	am, _ := LookupReduce(AbsMax, nil)
	acc = am.NewAcc(nil)
	am.Row(acc, []float64{-5, 2}, nil)
	if acc[0] != 5 {
		t.Fatalf("absmax = %v", acc)
	}
}

func TestBuiltinBinaryKernels(t *testing.T) {
	dst := []float64{1, 2}
	src := []float64{10, 20}
	axpy, err := LookupBinary(Axpy, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	axpy.Fn(dst, src, []float64{0.5})
	if dst[0] != 6 || dst[1] != 12 {
		t.Fatalf("axpy: %v", dst)
	}
	cp, _ := LookupBinary(Copy, nil)
	cp.Fn(dst, src, nil)
	if dst[0] != 10 {
		t.Fatalf("copy: %v", dst)
	}
	mul, _ := LookupBinary(Mul, nil)
	mul.Fn(dst, src, nil)
	if dst[1] != 400 {
		t.Fatalf("mul: %v", dst)
	}

	r, err := Resolve(BinaryReduceStage(Dot), nil)
	if err != nil {
		t.Fatal(err)
	}
	dot := r.BinRed
	acc := dot.NewAcc(nil)
	dot.Row(acc, []float64{1, 2}, []float64{3, 4}, nil)
	if acc[0] != 11 {
		t.Fatalf("dot = %v", acc)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := LookupMap("nope", nil); err == nil {
		t.Error("unknown map kernel resolved")
	}
	if _, err := LookupReduce("nope", nil); err == nil {
		t.Error("unknown reduce kernel resolved")
	}
	if _, err := LookupBinary("nope", nil); err == nil {
		t.Error("unknown binary kernel resolved")
	}
	if _, err := Resolve(BinaryReduceStage("nope"), nil); err == nil {
		t.Error("unknown binary reduce kernel resolved")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterMap(Fill, Map{Fn: func(row, p []float64) {}})
}

// registerShared registers "test.shared" as a map and as a reduce kernel,
// once a process: the registry refuses a second time, and -count=2 runs
// the test twice.
var registerShared = sync.OnceFunc(func() {
	RegisterMap("test.shared", Map{Fn: func(row, p []float64) {}})
	RegisterReduce("test.shared", Reduce{
		Width: 1,
		Init:  func(acc, _ []float64) {},
		Row:   func(acc, row, _ []float64) {},
		Merge: func(acc, other []float64) {},
	})
})

// The one fold rule, for a device's regions and a client's devices: a
// partial of no elements is never merged, the first with elements is
// copied over the identity — bitwise: merging −0 into a zero sum gives
// +0 — and each later one is merged.
func TestFoldRule(t *testing.T) {
	c, err := Pipeline{Stages: []Stage{MapStage(Scale), ReduceStage(MinMax), BinaryReduceStage(Dot)}}.Resolve([][]float64{{2}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if c.Width() != 3 || c.Operands() != 1 || !c.Mutates() {
		t.Fatalf("chain: width %d, %d operands, mutates %v; want 3, 1, true", c.Width(), c.Operands(), c.Mutates())
	}
	totals := c.Identity()
	if len(totals) != 2 || totals[0].N != 0 || !math.IsInf(totals[0].Acc[0], 1) || !math.IsInf(totals[0].Acc[1], -1) || totals[1].Acc[0] != 0 {
		t.Fatalf("identity = %+v", totals)
	}
	minmax, dot := &c[1], &c[2]
	for _, y := range []Partial{{Acc: []float64{math.Inf(-1), math.Inf(1)}}, {N: 2, Acc: []float64{3, 5}}, {N: 1, Acc: []float64{-1, 4}}} {
		minmax.Fold(&totals[0], y)
	}
	if totals[0].N != 3 || totals[0].Acc[0] != -1 || totals[0].Acc[1] != 5 {
		t.Errorf("minmax folded to %+v, want [-1 5] over 3 elements", totals[0])
	}
	dot.Fold(&totals[1], Partial{N: 4, Acc: []float64{math.Copysign(0, -1)}})
	if totals[1].N != 4 || !math.Signbit(totals[1].Acc[0]) {
		t.Errorf("the first dot partial was merged into the identity, not copied: %+v", totals[1])
	}
}

// Namespaces are independent: the same name may identify one kernel of
// each shape.
func TestNamespacesIndependent(t *testing.T) {
	registerShared()
	if _, err := LookupMap("test.shared", nil); err != nil {
		t.Error(err)
	}
	if _, err := LookupReduce("test.shared", nil); err != nil {
		t.Error(err)
	}
}
