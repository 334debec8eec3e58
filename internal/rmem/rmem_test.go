package rmem_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"oopp/internal/cluster"
	"oopp/internal/rmem"
	"oopp/internal/wire"
)

// bg is the neutral context for call sites with no deadline.
var bg = context.Background()

func startCluster(t testing.TB, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewLocal(n, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

// TestPaperExample reproduces §2's remote memory example verbatim:
//
//	double * data = new(machine 2) double[1024];
//	data[7] = 3.1415;
//	double x = data[2];
func TestPaperExample(t *testing.T) {
	c := startCluster(t, 3)
	client := c.Client() // the program runs on machine 0

	data, err := rmem.NewFloat64Array(bg, client, 2, 1024)
	if err != nil {
		t.Fatalf("new(machine 2) double[1024]: %v", err)
	}
	if err := data.Set(bg, 7, 3.1415); err != nil {
		t.Fatalf("data[7] = 3.1415: %v", err)
	}
	x, err := data.Get(bg, 2)
	if err != nil {
		t.Fatalf("x = data[2]: %v", err)
	}
	if x != 0 {
		t.Errorf("fresh element = %v, want 0", x)
	}
	v, err := data.Get(bg, 7)
	if err != nil {
		t.Fatalf("get(7): %v", err)
	}
	if v != 3.1415 {
		t.Errorf("data[7] = %v, want 3.1415", v)
	}
	if err := data.Free(bg); err != nil {
		t.Fatalf("free: %v", err)
	}
	if _, err := data.Get(bg, 0); err == nil {
		t.Error("get after free should fail")
	}
}

func TestRangeOps(t *testing.T) {
	c := startCluster(t, 2)
	a, err := rmem.NewFloat64Array(bg, c.Client(), 1, 100)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	defer a.Free(bg)

	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i) * 1.5
		if err := a.Set(bg, 10+i, vals[i]); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	got := make([]float64, 40)
	if err := a.GetRangeInto(bg, 10, got); err != nil {
		t.Fatalf("GetRangeInto: %v", err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	// Untouched prefix still zero.
	head := make([]float64, 10)
	if err := a.GetRangeInto(bg, 0, head); err != nil {
		t.Fatalf("GetRangeInto head: %v", err)
	}
	for i, v := range head {
		if v != 0 {
			t.Fatalf("head[%d] = %v", i, v)
		}
	}
}

func TestFillAndSum(t *testing.T) {
	c := startCluster(t, 2)
	a, err := rmem.NewFloat64Array(bg, c.Client(), 1, 1000)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	defer a.Free(bg)
	for i := 0; i < 1000; i++ {
		if err := a.Set(bg, i, 0.5); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	s, err := a.Sum(bg)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if math.Abs(s-500) > 1e-9 {
		t.Errorf("sum = %v, want 500", s)
	}
}

func TestBoundsErrors(t *testing.T) {
	c := startCluster(t, 1)
	a, err := rmem.NewFloat64Array(bg, c.Client(), 0, 10)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	defer a.Free(bg)

	cases := []func() error{
		func() error { _, err := a.Get(bg, -1); return err },
		func() error { _, err := a.Get(bg, 10); return err },
		func() error { return a.Set(bg, 10, 1) },
		func() error { return a.GetRangeInto(bg, 5, make([]float64, 6)) },
		func() error { return a.GetRangeInto(bg, -1, make([]float64, 2)) },
	}
	for i, f := range cases {
		if err := f(); err == nil {
			t.Errorf("case %d: expected bounds error", i)
		}
	}
	// Negative allocation size.
	if _, err := rmem.NewFloat64Array(bg, c.Client(), 0, -5); err == nil {
		t.Error("expected error for negative size")
	}
}

// TestGetRangeRefusesOverflowingRange: a request whose end overflows an
// int gets the range error, not a slice panic.
func TestGetRangeRefusesOverflowingRange(t *testing.T) {
	c := startCluster(t, 1)
	a, err := rmem.NewFloat64Array(bg, c.Client(), 0, 10)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	defer a.Free(bg)
	d, err := rmem.BlockGetRange.Call(bg, c.Client(), a.Ref(), func(e *wire.Encoder) error {
		e.PutInt(1)
		e.PutInt(math.MaxInt)
		return nil
	})
	d.Release()
	if err == nil || !strings.Contains(err.Error(), "rmem: range") {
		t.Errorf("getRange(1, MaxInt) = %v, want the range error", err)
	}
}

// Property: a random sequence of in-bounds Set operations followed by Gets
// behaves exactly like a local []float64.
func TestQuickShadowModel(t *testing.T) {
	c := startCluster(t, 2)
	const n = 64
	a, err := rmem.NewFloat64Array(bg, c.Client(), 1, n)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	defer a.Free(bg)
	shadow := make([]float64, n)

	f := func(idx uint8, val float64) bool {
		i := int(idx) % n
		if err := a.Set(bg, i, val); err != nil {
			return false
		}
		shadow[i] = val
		got, err := a.Get(bg, i)
		if err != nil {
			return false
		}
		return math.Float64bits(got) == math.Float64bits(shadow[i])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Final full-state comparison.
	got := make([]float64, n)
	if err := a.GetRangeInto(bg, 0, got); err != nil {
		t.Fatalf("GetRangeInto: %v", err)
	}
	for i := range shadow {
		if math.Float64bits(got[i]) != math.Float64bits(shadow[i]) {
			t.Fatalf("element %d: got %v want %v", i, got[i], shadow[i])
		}
	}
}

// TestSharedBlockAcrossClients mirrors the paper's shared-memory sketch:
// several "computing processes" on different machines access one block.
func TestSharedBlockAcrossClients(t *testing.T) {
	c := startCluster(t, 4)
	// The block lives on machine 3.
	a, err := rmem.NewFloat64Array(bg, c.Client(), 3, 16)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	defer a.Free(bg)

	// Machines 0..2 each write their slot through their own client,
	// sharing the same remote pointer (Ref).
	for m := 0; m < 3; m++ {
		d, err := c.Machine(m).Env().Client.Call(bg, a.Ref(), "set", func(e *wire.Encoder) error {
			e.PutInt(m)
			e.PutFloat64(float64(m + 1))
			return nil
		})
		if err != nil {
			t.Fatalf("machine %d set: %v", m, err)
		}
		d.Release()
	}
	for m := 0; m < 3; m++ {
		v, err := a.Get(bg, m)
		if err != nil {
			t.Fatalf("get %d: %v", m, err)
		}
		if v != float64(m+1) {
			t.Errorf("slot %d = %v, want %d", m, v, m+1)
		}
	}
}
