package pfft_test

import (
	"context"
	"encoding/binary"
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/fft"
	"oopp/internal/metrics"
	"oopp/internal/mp"
	"oopp/internal/pfft"
	"oopp/internal/rmi"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// bg is the neutral context for call sites with no deadline.
var bg = context.Background()

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

func machineList(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// TestDistributedMatchesLocal is the central correctness property: the
// joint FFT computed by P cooperating processes equals the local 3D FFT,
// for several worker counts and both signs.
func TestDistributedMatchesLocal(t *testing.T) {
	const n1, n2, n3 = 8, 8, 4
	x := testData(n1*n2*n3, 42)

	want := append([]complex128(nil), x...)
	if err := fft.FFT3D(want, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{1, 2, 4} {
		t.Run(map[int]string{1: "P1", 2: "P2", 4: "P4"}[p], func(t *testing.T) {
			cl, err := cluster.NewLocal(p, 0)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			defer cl.Shutdown()

			f, err := pfft.New(bg, cl.Client(), machineList(p), n1, n2, n3)
			if err != nil {
				t.Fatalf("pfft.New: %v", err)
			}
			defer f.Close(bg)
			if f.Workers() != p {
				t.Fatalf("workers = %d", f.Workers())
			}

			if err := f.Load(bg, x); err != nil {
				t.Fatalf("load: %v", err)
			}
			if err := f.Transform(bg, -1); err != nil {
				t.Fatalf("transform: %v", err)
			}
			if err := f.Barrier(bg); err != nil {
				t.Fatalf("barrier: %v", err)
			}
			got := make([]complex128, len(x))
			if err := f.Gather(bg, got); err != nil {
				t.Fatalf("gather: %v", err)
			}
			if !approxEqual(got, want, 1e-9) {
				t.Fatal("distributed FFT != local FFT")
			}

			// Inverse returns the original.
			if err := f.Transform(bg, +1); err != nil {
				t.Fatalf("inverse: %v", err)
			}
			if err := f.Gather(bg, got); err != nil {
				t.Fatalf("gather: %v", err)
			}
			if !approxEqual(got, x, 1e-9) {
				t.Fatal("inverse(forward(x)) != x distributed")
			}
		})
	}
}

// TestDistributedOverTCP runs the joint transform over real sockets, where
// nothing but the arrival table orders a block's placement against the
// transform it lands in: two workers and four, three forward/inverse rounds
// on one group so every slot is opened, filled and reopened.
func TestDistributedOverTCP(t *testing.T) {
	const n1, n2, n3 = 4, 4, 4
	x := testData(n1*n2*n3, 7)
	want := append([]complex128(nil), x...)
	if err := fft.FFT3D(want, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		cl, err := cluster.New(cluster.Config{Machines: p, Transport: transport.TCP{}})
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		defer cl.Shutdown()
		f, err := pfft.New(bg, cl.Client(), machineList(p), n1, n2, n3)
		if err != nil {
			t.Fatalf("pfft.New: %v", err)
		}
		defer f.Close(bg)
		if err := f.Load(bg, x); err != nil {
			t.Fatalf("load: %v", err)
		}
		got := make([]complex128, len(x))
		for round := 0; round < 3; round++ {
			for _, leg := range []struct {
				sign int
				want []complex128
			}{{-1, want}, {+1, x}} {
				if err := f.Transform(bg, leg.sign); err != nil {
					t.Fatalf("P=%d round %d sign %+d: %v", p, round, leg.sign, err)
				}
				if err := f.Gather(bg, got); err != nil {
					t.Fatalf("gather: %v", err)
				}
				if !approxEqual(got, leg.want, 1e-9) {
					t.Fatalf("P=%d round %d sign %+d: TCP distributed FFT != local FFT", p, round, leg.sign)
				}
			}
		}
	}
}

// TestTransformTraffic holds the exchange to the traffic it has always had:
// per transform one call per worker plus 2·P·(P−1) storeBlock calls, each
// a request and a reply, and on the wire the blocks' packed bytes — a count
// and 16 bytes a value — plus a few dozen bytes of header a message.
func TestTransformTraffic(t *testing.T) {
	const n1, n2, n3 = 8, 8, 4
	for _, p := range []int{2, 4} {
		cl, err := cluster.NewLocal(p, 0)
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		defer cl.Shutdown()
		f, err := pfft.New(bg, cl.Client(), machineList(p), n1, n2, n3)
		if err != nil {
			t.Fatalf("pfft.New: %v", err)
		}
		defer f.Close(bg)
		before := metrics.Default.Snapshot()
		if err := f.Transform(bg, -1); err != nil {
			t.Fatal(err)
		}
		d := metrics.Default.Snapshot().Sub(before)
		blocks := int64(2 * p * (p - 1))
		blockElems := int64((n1 / p) * (n2 / p) * n3)
		payload := blocks * (int64(len(binary.AppendUvarint(nil, uint64(blockElems)))) + 16*blockElems)
		if wantMsgs := 2 * (int64(p) + blocks); d.MessagesSent != wantMsgs {
			t.Errorf("P=%d: %d messages per transform, want %d", p, d.MessagesSent, wantMsgs)
		}
		if over := d.BytesSent - payload; over < 0 || over > 48*d.MessagesSent {
			t.Errorf("P=%d: %d bytes per transform for %d of blocks: %d of headers over %d messages", p, d.BytesSent, payload, over, d.MessagesSent)
		}
	}
}

// TestTransformAllocatesNoBlocks: in steady state a transform allocates,
// per worker, less than one block's bytes — no packed copy of a block on
// either side, frames recycled — where the staged exchange took six.
func TestTransformAllocatesNoBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	const n, p, rounds = 32, 2, 8
	const blockBytes = 16 * (n / p) * (n / p) * n
	cl, err := cluster.NewLocal(p, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	f, err := pfft.New(bg, cl.Client(), machineList(p), n, n, n)
	if err != nil {
		t.Fatalf("pfft.New: %v", err)
	}
	defer f.Close(bg)
	if err := f.Load(bg, testData(n*n*n, 3)); err != nil {
		t.Fatal(err)
	}
	transform := func() {
		for _, sign := range []int{-1, +1} {
			if err := f.Transform(bg, sign); err != nil {
				t.Fatal(err)
			}
		}
	}
	transform() // warm the frame pool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		transform()
	}
	runtime.ReadMemStats(&m1)
	perWorker := float64(m1.TotalAlloc-m0.TotalAlloc) / (2 * rounds * p)
	t.Logf("%.0f bytes allocated per worker per transform; a block is %d", perWorker, blockBytes)
	if perWorker >= blockBytes {
		t.Errorf("%.0f bytes allocated per worker per transform, want less than one block (%d)", perWorker, blockBytes)
	}
}

// TestShallowSetGroupEquivalent verifies the §4 anti-pattern variant
// computes the same transform (it is only slower, not wrong).
func TestShallowSetGroupEquivalent(t *testing.T) {
	const n1, n2, n3 = 4, 4, 2
	const p = 2
	cl, err := cluster.NewLocal(p, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()

	x := testData(n1*n2*n3, 9)
	want := append([]complex128(nil), x...)
	if err := fft.FFT3D(want, n1, n2, n3, -1); err != nil {
		t.Fatal(err)
	}

	f, err := pfft.NewShallow(bg, cl.Client(), machineList(p), n1, n2, n3)
	if err != nil {
		t.Fatalf("NewShallow: %v", err)
	}
	defer f.Close(bg)
	if err := f.Load(bg, x); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := f.Transform(bg, -1); err != nil {
		t.Fatalf("transform: %v", err)
	}
	got := make([]complex128, len(x))
	if err := f.Gather(bg, got); err != nil {
		t.Fatalf("gather: %v", err)
	}
	if !approxEqual(got, want, 1e-9) {
		t.Fatal("shallow-group FFT != local FFT")
	}
}

// TestMPBaselineMatchesLocal verifies the message-passing baseline (E6's
// comparator) against the local FFT.
func TestMPBaselineMatchesLocal(t *testing.T) {
	const n1, n2, n3 = 8, 4, 4
	for _, p := range []int{1, 2, 4} {
		w, err := mp.NewWorld(transport.NewInproc(transport.LinkModel{}), p)
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		x := testData(n1*n2*n3, 11)
		want := append([]complex128(nil), x...)
		if err := fft.FFT3D(want, n1, n2, n3, -1); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := pfft.MPTransform3D(w, got, n1, n2, n3, -1); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !approxEqual(got, want, 1e-9) {
			t.Fatalf("P=%d: MP FFT != local FFT", p)
		}
		// Round trip.
		if err := pfft.MPTransform3D(w, got, n1, n2, n3, +1); err != nil {
			t.Fatalf("P=%d inverse: %v", p, err)
		}
		if !approxEqual(got, x, 1e-9) {
			t.Fatalf("P=%d: MP inverse broken", p)
		}
		w.Close()
	}
}

func TestGeometryErrors(t *testing.T) {
	cl, err := cluster.NewLocal(3, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()

	// Dims not divisible by worker count.
	if _, err := pfft.New(bg, cl.Client(), machineList(3), 8, 8, 8); err == nil {
		t.Error("indivisible dims accepted")
	}
	if _, err := pfft.New(bg, cl.Client(), nil, 8, 8, 8); err == nil {
		t.Error("empty machine list accepted")
	}

	f, err := pfft.New(bg, cl.Client(), machineList(2), 8, 8, 8)
	if err != nil {
		t.Fatalf("pfft.New: %v", err)
	}
	defer f.Close(bg)
	if err := f.Load(bg, make([]complex128, 10)); err == nil {
		t.Error("wrong-size load accepted")
	}
	if err := f.Gather(bg, make([]complex128, 10)); err == nil {
		t.Error("wrong-size gather accepted")
	}

	// transform before setGroup on a raw worker.
	ref, err := cl.Client().New(bg, 0, pfft.ClassWorker, func(e *wire.Encoder) error {
		e.PutInt(0)
		e.PutInt(4)
		e.PutInt(4)
		e.PutInt(4)
		return nil
	})
	if err != nil {
		t.Fatalf("raw worker: %v", err)
	}
	defer cl.Client().Delete(bg, ref)
	if _, err := cl.Client().Call(bg, ref, "transform", func(e *wire.Encoder) error {
		e.PutInt(-1)
		return nil
	}); err == nil {
		t.Error("transform before setGroup accepted")
	}
	// Bad constructor dims.
	if _, err := cl.Client().New(bg, 0, pfft.ClassWorker, func(e *wire.Encoder) error {
		e.PutInt(0)
		e.PutInt(0)
		e.PutInt(4)
		e.PutInt(4)
		return nil
	}); err == nil {
		t.Error("zero dims accepted")
	}
}

// TestRepeatedTransforms reuses one worker group for several transforms,
// catching staging-area leakage across calls.
func TestRepeatedTransforms(t *testing.T) {
	const n1, n2, n3 = 4, 4, 2
	const p = 2
	cl, err := cluster.NewLocal(p, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	f, err := pfft.New(bg, cl.Client(), machineList(p), n1, n2, n3)
	if err != nil {
		t.Fatalf("pfft.New: %v", err)
	}
	defer f.Close(bg)

	for trial := 0; trial < 3; trial++ {
		x := testData(n1*n2*n3, uint64(100+trial))
		if err := f.Load(bg, x); err != nil {
			t.Fatalf("trial %d load: %v", trial, err)
		}
		if err := f.Transform(bg, -1); err != nil {
			t.Fatalf("trial %d forward: %v", trial, err)
		}
		if err := f.Transform(bg, +1); err != nil {
			t.Fatalf("trial %d inverse: %v", trial, err)
		}
		got := make([]complex128, len(x))
		if err := f.Gather(bg, got); err != nil {
			t.Fatalf("trial %d gather: %v", trial, err)
		}
		if !approxEqual(got, x, 1e-9) {
			t.Fatalf("trial %d: round trip broken", trial)
		}
	}
}

// TestRefTableBounds exercises the RefTable holder used by the shallow
// experiment.
func TestRefTableBounds(t *testing.T) {
	cl, err := cluster.NewLocal(1, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	refs := []rmi.Ref{{Machine: 0, Object: 1, Class: "x"}}
	table, err := cl.Client().New(bg, 0, pfft.ClassRefTable, func(e *wire.Encoder) error {
		e.PutRefs(refs)
		return nil
	})
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	defer cl.Client().Delete(bg, table)
	d, err := cl.Client().Call(bg, table, "size", nil)
	if err != nil || d.Int() != 1 {
		t.Fatalf("size: %v", err)
	}
	if _, err := cl.Client().Call(bg, table, "getRef", func(e *wire.Encoder) error {
		e.PutInt(5)
		return nil
	}); err == nil {
		t.Error("out-of-range getRef accepted")
	}
}
