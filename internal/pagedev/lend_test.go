package pagedev_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/disk"
	"oopp/internal/pagedev"
	"oopp/internal/transport"
)

// replyHold is TCP whose servers hold the first reply whose tail is tailLen
// bytes long — a readArray reply lending its page — until released.
type replyHold struct {
	transport.TCP
	tailLen int
	armed   atomic.Bool
	held    chan struct{} // a reply is held
	release chan struct{} // let it go
}

type holdListener struct {
	transport.Listener
	h *replyHold
}

type holdConn struct {
	transport.Conn
	h *replyHold
}

func (h *replyHold) Listen(addr string) (transport.Listener, error) {
	l, err := h.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return holdListener{l, h}, nil
}

func (l holdListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return holdConn{c, l.h}, nil
}

func (c holdConn) SendBurst(frames []transport.Frame) error {
	for _, f := range frames {
		if len(f.Tail) == c.h.tailLen && c.h.armed.CompareAndSwap(true, false) {
			c.h.held <- struct{}{}
			<-c.h.release
		}
	}
	return c.Conn.SendBurst(frames)
}

// TestLentPageStaysEntered: a device answers readArray from the page it
// holds, and the page stays entered until the reply has left. While the
// server holds the reply, a write try-lock of the page's range on the
// machine disk fails, and a writeArray of the page through a second device
// on the same disk — outside the first one's mailbox — waits; the reply
// then arrives with the page as it was before that write, bit for bit, and
// once the write is through the range is free.
func TestLentPageStaysEntered(t *testing.T) {
	const n = 16
	vals := n * n * n
	pageBytes := 8 * vals
	h := &replyHold{tailLen: pageBytes, held: make(chan struct{}), release: make(chan struct{})}
	cl, err := cluster.New(cluster.Config{Machines: 2, Transport: h, DisksPerMachine: 1, DiskSize: int64(2 * pageBytes)})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	dev, err := pagedev.NewArrayDevice(bg, cl.Client(), 1, "lender", 2, n, n, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := pagedev.NewArrayDevice(bg, cl.Client(), 1, "alias", 2, n, n, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := cl.Machine(1).Env().Resource("disk/0")
	dsk := res.(*disk.Disk)

	before, after := make([]float64, vals), make([]float64, vals)
	for i := range before {
		before[i] = math.Float64frombits(0x3FF0_0000_0000_0001 + uint64(i)*0x0000_1000_0000_0001)
		after[i] = -float64(i) - 0.5
	}
	if err := dev.WritePageAsync(bg, 0, before).Err(bg); err != nil {
		t.Fatal(err)
	}

	h.armed.Store(true)
	read := dev.ReadPageAsync(bg, 0)
	select {
	case <-h.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no readArray reply with a page as its tail")
	}
	if dsk.Lock(0, pageBytes, true, true) {
		dsk.Release(0, pageBytes, true)
		t.Error("the page's range could be write-locked while its reply was held")
	}
	write := alias.WritePageAsync(bg, 0, after)
	select {
	case <-write.Done():
		t.Errorf("a write of the lent page went through while its reply was held (%v)", write.Err(bg))
	case <-time.After(50 * time.Millisecond):
	}
	close(h.release)

	reply, err := dev.OpenPage(bg, read)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, vals)
	reply.Copy(got, 0)
	reply.Release()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(before[i]) {
			t.Fatalf("value %d of the reply reads %v, the page held %v before the write", i, got[i], before[i])
		}
	}
	if err := write.Err(bg); err != nil {
		t.Fatal(err)
	}
	if !dsk.Lock(0, pageBytes, true, true) {
		t.Fatal("the page's range is still locked after its reply left")
	}
	dsk.Release(0, pageBytes, true)
	page := pagedev.NewArrayPage(n, n, n)
	if err := dev.ReadPage(bg, page, 0); err != nil {
		t.Fatal(err)
	}
	for i := range page.Data {
		if page.Data[i] != after[i] {
			t.Fatalf("value %d reads %v after the write, want %v", i, page.Data[i], after[i])
		}
	}
}
