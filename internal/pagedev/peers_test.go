package pagedev

import (
	"context"
	"runtime"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/kernel"
	"oopp/internal/rmi"
)

// In place has no counter and no switch; what shows that it happened is what
// did NOT: a worker's staging buffer is allocated the first time something is
// copied into it, so a device all of whose operands were read where they lie
// has none.

var ctx = context.Background()

// object is the device process behind a stub, for a look at its fields once
// its calls have returned.
func object(t *testing.T, c *cluster.Cluster, dev *ArrayDevice) *arrayPageDevice {
	t.Helper()
	obj, ok := c.Machine(dev.Ref().Machine).Server().Object(dev.Ref().Object)
	if !ok {
		t.Fatalf("no object behind %v", dev.Ref())
	}
	return obj.(*arrayPageDevice)
}

func stagedCap(a *arrayPageDevice) (total int) {
	for _, s := range a.staged {
		total += cap(s)
	}
	return total
}

func newDevice(t *testing.T, c *cluster.Cluster, m int, name string, pages, n1, n int, fill float64) *ArrayDevice {
	t.Helper()
	dev, err := NewArrayDevice(ctx, c.Client(), m, name, pages, n1, n, n, DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close(ctx) })
	for p := 0; p < pages; p++ {
		if err := dev.FillPage(ctx, p, fill+float64(p)); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// TestCoLocatedOperandsAreReadInPlace: Axpy, Dot and the fused chain, over
// whole pages and a sub-box, on one goroutine and on pages large enough to
// be shared among four, with the operand on a co-located device cut like the
// swept one — no staging buffer of any worker is ever allocated. With the
// operand on another machine, on a co-located device of another page
// geometry, or the swept page itself under a chain that writes it, one is:
// those are pulled, or copied out, as before.
func TestCoLocatedOperandsAreReadInPlace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	c, err := cluster.NewLocal(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	stages := func(s ...kernel.Stage) kernel.Pipeline { return kernel.Pipeline{Stages: s} }
	axpy := stages(kernel.BinaryStage(kernel.Axpy))
	dot := stages(kernel.BinaryReduceStage(kernel.Dot))
	chain := stages(kernel.MapStage(kernel.Scale), kernel.BinaryStage(kernel.Axpy), kernel.ReduceStage(kernel.Sum), kernel.BinaryReduceStage(kernel.Dot))
	const pages = 4
	for _, n := range []int{4, 42} { // 42³ elements a region: a batch of four is shared among workers
		whole, inner := SubBox{Dim: [3]int{n, n, n}}, SubBox{Lo: [3]int{1, 0, 2}, Dim: [3]int{n - 2, n, n - 3}}
		sweep := func(x, y *ArrayDevice) (sums []float64) {
			t.Helper()
			for _, box := range []SubBox{whole, inner} {
				var one, two []PipeRegion
				for p := 0; p < pages; p++ {
					peer := PipePeer{Peer: 0, Index: p}
					one = append(one, PipeRegion{Index: p, Box: box, Fold: true, Peers: []PipePeer{peer}})
					two = append(two, PipeRegion{Index: p, Box: box, Fold: true, Peers: []PipePeer{peer, peer}})
				}
				for _, run := range []struct {
					p       kernel.Pipeline
					params  [][]float64
					regions []PipeRegion
				}{{axpy, [][]float64{{0.5}}, one}, {dot, [][]float64{nil}, one}, {chain, [][]float64{{2}, {-1}, nil, nil}, two}} {
					c, err := run.p.Resolve(run.params)
					if err != nil {
						t.Fatal(err)
					}
					_, parts, err := x.ApplyPipelineK(ctx, c, Batch{Peers: []rmi.Ref{y.Ref()}, Regions: run.regions})
					if err != nil {
						t.Fatalf("%d³ pages, %v: %v", n, run.p, err)
					}
					for _, part := range parts {
						sums = append(sums, part.Acc...)
					}
				}
			}
			return sums
		}
		x := newDevice(t, c, 0, "x", pages, n, n, 1)
		want := sweep(x, newDevice(t, c, 0, "y", pages, n, n, 3))
		if obj := object(t, c, x); stagedCap(obj) != 0 || len(obj.staged) == 0 {
			t.Errorf("%d³ pages, co-located operand: %d staging slots hold %d floats, want some and none", n, len(obj.staged), stagedCap(obj))
		}
		// The same contents, reached the other ways: every sum is the same
		// bitwise, and something was staged.
		for _, tc := range []struct {
			what        string
			machine, n1 int
		}{
			{"remote operand", 1, n},
			{"operand of another geometry", 0, 2 * n}, // pages twice as deep: page p's regions lie in its upper half
		} {
			x := newDevice(t, c, 0, "x", pages, n, n, 1)
			got := sweep(x, newDevice(t, c, tc.machine, "y2", pages, tc.n1, n, 3))
			if stagedCap(object(t, c, x)) == 0 {
				t.Errorf("%d³ pages, %s: nothing was staged", n, tc.what)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%d³ pages, %s: reduction %d is %v, in place %v", n, tc.what, i, got[i], want[i])
				}
			}
		}
		self := newDevice(t, c, 0, "self", pages, n, n, 1)
		sweep(self, self)
		if stagedCap(object(t, c, self)) == 0 {
			t.Errorf("%d³ pages: x.Axpy(x) wrote the page it was reading in place", n)
		}
	}
}

// TestHeldStripeStagesAtTheSameCharge: the operand page is on the same disk
// as the swept one. A page 64 KiB on lies under another stripe of the
// contents lock and is read in place; the next page lies under the SAME
// stripe, which the chain holds for writing, so the try misses and the page
// is copied out first — and nothing but the staging buffer tells the two
// apart: the pages, the device's reads and writes and the disk's operations
// are equal, the operand charged once either way.
func TestHeldStripeStagesAtTheSameCharge(t *testing.T) {
	c, err := cluster.NewLocal(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	const far = 64 << 10 / (4 * 4 * 4 * 8) // pages of 512 B to a granule of the lock
	chain, err := kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage(kernel.Scale), kernel.BinaryStage(kernel.Axpy), kernel.BinaryReduceStage(kernel.Dot)}}.Resolve([][]float64{{3}, {2}, nil})
	if err != nil {
		t.Fatal(err)
	}
	run := func(operand int) (page []float64, counts [4]int64, staged int) {
		dev, err := NewArrayDevice(ctx, c.Client(), 0, "d", far+1, 4, 4, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close(ctx)
		for p, v := range map[int]float64{0: 1.5, operand: 0.25} {
			if err := dev.FillPage(ctx, p, v); err != nil {
				t.Fatal(err)
			}
		}
		dsk := c.Machine(0).Disks()[0]
		r0, w0, _ := dev.Stats(ctx)
		dr0, dw0 := dsk.Ops()
		peer := PipePeer{Peer: 0, Index: operand}
		regions := []PipeRegion{{Index: 0, Box: SubBox{Lo: [3]int{1, 1, 0}, Dim: [3]int{3, 2, 4}}, Fold: true, Peers: []PipePeer{peer, peer}}}
		if _, _, err := dev.ApplyPipelineK(ctx, chain, Batch{Peers: []rmi.Ref{dev.Ref()}, Regions: regions}); err != nil {
			t.Fatal(err)
		}
		r1, w1, _ := dev.Stats(ctx)
		dr1, dw1 := dsk.Ops()
		staged = stagedCap(object(t, c, dev))
		got := NewArrayPage(4, 4, 4)
		if err := dev.ReadPage(ctx, got, 0); err != nil {
			t.Fatal(err)
		}
		return got.Data, [4]int64{r1 - r0, w1 - w0, dr1 - dr0, dw1 - dw0}, staged
	}
	inPlace, want, staged := run(far)
	if staged != 0 {
		t.Fatalf("operand a granule away: %d floats staged, want in place", staged)
	}
	if want != [4]int64{3, 1, 3, 1} {
		t.Errorf("in place: device +%d/+%d, disk +%d/+%d (reads/writes), want 3/1 and 3/1", want[0], want[1], want[2], want[3])
	}
	copied, got, staged := run(1)
	if staged == 0 {
		t.Fatal("operand under the held stripe: read in place")
	}
	if got != want {
		t.Errorf("staged by a held stripe: counts %v, in place %v", got, want)
	}
	for i := range inPlace {
		if copied[i] != inPlace[i] {
			t.Fatalf("element %d: %v staged, %v in place", i, copied[i], inPlace[i])
		}
	}
}
