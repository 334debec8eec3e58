package core_test

import (
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"

	"oopp/internal/bufpool"
	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/elastic"
	"oopp/internal/pagedev"
	"oopp/internal/trace"
	"oopp/internal/transport"
)

// A device fetches the operands it cannot read where they lie in pieces of
// at most bufpool.PieceBytes of values, one readSubBatch per peer and
// piece, so no reply frame outgrows the buffer pool however many pages a
// batch names.

// frameTap is TCP that notes the largest frame any connection sends.
type frameTap struct {
	transport.TCP
	largest atomic.Int64
}

type tapConn struct {
	transport.Conn
	t *frameTap
}

type tapListener struct {
	transport.Listener
	t *frameTap
}

func (t *frameTap) note(frames ...transport.Frame) {
	for _, f := range frames {
		for old := t.largest.Load(); int64(f.Len()) > old; old = t.largest.Load() {
			if t.largest.CompareAndSwap(old, int64(f.Len())) {
				break
			}
		}
	}
}

func (t *frameTap) Dial(addr string) (transport.Conn, error) {
	c, err := t.TCP.Dial(addr)
	if err != nil {
		return nil, err
	}
	return tapConn{c, t}, nil
}

func (t *frameTap) Listen(addr string) (transport.Listener, error) {
	l, err := t.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tapListener{l, t}, nil
}

func (l tapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{c, l.t}, nil
}

func (c tapConn) Send(msg []byte) error {
	c.t.note(transport.Frame{Head: msg})
	return c.Conn.Send(msg)
}

func (c tapConn) SendBurst(frames []transport.Frame) error {
	c.t.note(frames...)
	return c.Conn.SendBurst(frames)
}

// servedCalls reports how many calls of an ArrayPageDevice method machine m
// has answered, read off the debug plane.
func servedCalls(t *testing.T, cl *cluster.Cluster, m int, method string) int64 {
	t.Helper()
	buf, err := cl.Client().Debug(bg, m)
	if err != nil {
		t.Fatalf("debug pull: %v", err)
	}
	var snap trace.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, ms := range snap.Methods {
		if ms.Name == pagedev.ArrayPageDeviceClass.Name()+"."+method {
			return ms.OK
		}
	}
	return 0
}

// TestPullFramesFitThePool migrates 20 pages of 32³ (5 MiB) from a device
// on machine 0 to one on machine 1 over TCP: the pulling device fetches
// them in pieces, so no frame on any connection is larger than the pool
// recycles, and the pages arrive bitwise intact.
func TestPullFramesFitThePool(t *testing.T) {
	tap := &frameTap{}
	cl, err := cluster.New(cluster.Config{Machines: 2, Transport: tap})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	const n, pages = 32, 20
	pm, err := core.NewPageMap("blocked", 5, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{0}, "big", pages, n, n, n, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer storage.Close(bg)
	arr, err := core.NewArray(bg, storage, pm, 5*n, 2*n, 2*n, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	want := fillPattern(t, arr, 0.25)
	if _, err := storage.AddDevice(bg, 1, pages, pagedev.DiskPrivate); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	tap.largest.Store(0)
	rep, err := arr.MigratePages(bg, []elastic.Move{{From: 0, To: 1, Pages: pages}})
	if err != nil || rep.Moved != pages {
		t.Fatalf("migrate: %+v, %v", rep, err)
	}
	if got := tap.largest.Load(); got > bufpool.MaxPooled {
		t.Errorf("the migration sent a frame of %d bytes; the pool recycles none above %d", got, bufpool.MaxPooled)
	}
	if got := devicePages(t, arr); got[1] != pages {
		t.Fatalf("after the migration device 1 holds %d pages, want %d", got[1], pages)
	}
	checkPattern(t, arr, want, "after the migration")
}

// TestRemoteOperandsArriveInPieces: an Axpy over 8 pages of 32³ on one
// device whose operand pages live on another machine fetches them in two
// readSubBatch calls of four pages (1 MiB) each, not one per page, and
// computes the same pages.
func TestRemoteOperandsArriveInPieces(t *testing.T) {
	cl, err := cluster.NewLocal(2, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	const n, N = 32, 64
	arrayOn := func(m int, name string, seed func(i int) float64) (*core.Array, []float64) {
		pm, err := core.NewPageMap("blocked", 2, 2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{m}, name, pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { storage.Close(bg) })
		arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, N*N*N)
		for i := range vals {
			vals[i] = seed(i)
		}
		if err := arr.Write(bg, vals, arr.Bounds()); err != nil {
			t.Fatal(err)
		}
		return arr, vals
	}
	x, xv := arrayOn(0, "x", func(i int) float64 { return float64(i%13 - 6) })
	y, yv := arrayOn(1, "y", func(i int) float64 { return float64(i%7-3) / 4 })

	before := servedCalls(t, cl, 1, "readSubBatch")
	if err := x.Axpy(bg, 0.5, y, x.Bounds()); err != nil {
		t.Fatalf("Axpy: %v", err)
	}
	if calls := servedCalls(t, cl, 1, "readSubBatch") - before; calls != 2 {
		t.Errorf("the operand's machine served %d readSubBatch calls, want 2 (8 pages of 256 KiB in pieces of %d bytes)", calls, bufpool.PieceBytes)
	}
	got := make([]float64, len(xv))
	if err := x.Read(bg, got, x.Bounds()); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := xv[i] + 0.5*yv[i]; math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("element %d = %v, want %v", i, got[i], want)
		}
	}
}
