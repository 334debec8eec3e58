package pagedev_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/rmi"
)

func TestAsyncStubVariants(t *testing.T) {
	c := startCluster(t, 2, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 1, "async", 3, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)

	// The raw byte protocol: written synchronously, read back split.
	raw := bytes.Repeat([]byte{0x11}, 64)
	if err := dev.Write(bg, 0, raw); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d, err := dev.ReadAsync(bg, 0).Wait(bg)
	if err != nil || !bytes.Equal(d.BytesView(), raw) {
		t.Fatalf("ReadAsync: %v", err)
	}
	d.Release()

	// Array-typed async path.
	page := pagedev.NewArrayPage(2, 2, 2)
	fill(page, 2.5)
	if err := dev.WritePageAsync(bg, 1, page.Data).Err(bg); err != nil {
		t.Fatalf("WritePageAsync: %v", err)
	}
	back := pagedev.NewArrayPage(2, 2, 2)
	reply, err := dev.OpenPage(bg, dev.ReadPageAsync(bg, 1))
	if err != nil {
		t.Fatalf("ReadPageAsync: %v", err)
	}
	reply.Copy(back.Data, 0)
	reply.Release()
	for i, v := range back.Data {
		if v != 2.5 {
			t.Fatalf("element %d = %v", i, v)
		}
	}
	if s, err := dev.Sum(bg, 1); err != nil || s != 2.5*8 {
		t.Fatalf("Sum = %v, %v", s, err)
	}
	if err := dev.FillPage(bg, 2, -1); err != nil {
		t.Fatalf("FillPage: %v", err)
	}
	if s, err := dev.Sum(bg, 2); err != nil || s != -8 {
		t.Fatalf("Sum of the filled page = %v, %v", s, err)
	}

	// AttachDevice round trip.
	attached := pagedev.AttachDevice(c.Client(), dev.Ref())
	n, err := attached.NumPages(bg)
	if err != nil || n != 3 {
		t.Fatalf("attached NumPages = %d, %v", n, err)
	}
}

// TestBlockTransfers: a page written from its values and a sub-box
// written from its row-packed values store exactly those values; a reply
// is taken in runs, each from where it names, backward ones included, and
// a run that goes off the page panics; values of the wrong count, a sub-box
// off the page and a reply of the wrong size are refused before anything
// is sent or stored.
func TestBlockTransfers(t *testing.T) {
	c := startCluster(t, 2, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 1, "blocks", 2, 2, 3, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)

	vals := make([]float64, 2*3*4)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	if err := dev.WritePageAsync(bg, 0, vals).Err(bg); err != nil {
		t.Fatalf("WritePageAsync: %v", err)
	}
	page := pagedev.NewArrayPage(2, 3, 4)
	if err := dev.ReadPage(bg, page, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range page.Data {
		if v != vals[i] {
			t.Fatalf("element %d = %v, want %v", i, v, vals[i])
		}
	}

	// Runs out of one reply: (0,1,1)+2, then (0,2,0)+3, then (1,2,2)+2,
	// the last two values of the page, then back to (0,0,0)+2 and to
	// (0,1,2)+1, inside the first run taken.
	reply, err := dev.OpenPage(bg, dev.ReadPageAsync(bg, 0))
	if err != nil {
		t.Fatalf("OpenPage: %v", err)
	}
	for _, run := range []struct{ i, j, k, n int }{{0, 1, 1, 2}, {0, 2, 0, 3}, {1, 2, 2, 2}, {0, 0, 0, 2}, {0, 1, 2, 1}} {
		got := make([]float64, run.n)
		reply.Copy(got, index(page, run.i, run.j, run.k))
		for x, v := range got {
			if want := page.Data[index(page, run.i, run.j, run.k+x)]; v != want {
				t.Fatalf("run %+v value %d = %v, want %v", run, x, v, want)
			}
		}
	}
	reply.Release()
	for _, bad := range []struct {
		name    string
		i, j, k int
	}{{"off the end of the page", 1, 2, 3}, {"from before the page", 0, 0, -1}} {
		reply, err := dev.OpenPage(bg, dev.ReadPageAsync(bg, 0))
		if err != nil {
			t.Fatalf("OpenPage: %v", err)
		}
		reply.Copy(make([]float64, 2), index(page, 0, 1, 0))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a run %s did not panic", bad.name)
				}
			}()
			reply.Copy(make([]float64, 2), index(page, bad.i, bad.j, bad.k))
		}()
		reply.Release()
	}

	// The sub-box (1,1,1)+(1,2,2) overwritten from row-packed values.
	sub := pagedev.SubBox{Lo: [3]int{1, 1, 1}, Dim: [3]int{1, 2, 2}}
	if err := dev.WriteSubAsync(bg, 0, sub, []float64{-1, -2, -3, -4}).Err(bg); err != nil {
		t.Fatalf("WriteSubAsync: %v", err)
	}
	if err := dev.ReadPage(bg, page, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				want := vals[index(page, i, j, k)]
				if i == 1 && j >= 1 && k >= 1 && k < 3 {
					want = -float64(2*(j-1) + k)
				}
				if got := page.Data[index(page, i, j, k)]; got != want {
					t.Fatalf("after writeSub page(%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}

	_, writes, _ := dev.Stats(bg)
	if err := dev.WritePageAsync(bg, 0, vals[1:]).Err(bg); err == nil {
		t.Error("a page write one value short was accepted")
	}
	for i, box := range []pagedev.SubBox{
		{Lo: [3]int{1, 1, 1}, Dim: [3]int{1, 2, 4}},   // runs off the page along axis 2
		{Lo: [3]int{2, 0, 0}, Dim: [3]int{1, 1, 1}},   // starts past the page
		{Lo: [3]int{0, 0, 0}, Dim: [3]int{-1, -1, 1}}, // negative extents of positive size
	} {
		if err := dev.WriteSubAsync(bg, 0, box, make([]float64, max(box.Size(), 0))).Err(bg); err == nil {
			t.Errorf("bad sub-box %d: write accepted", i)
		}
	}
	if err := dev.WriteSubAsync(bg, 0, sub, make([]float64, 3)).Err(bg); err == nil {
		t.Error("a sub-box write one value short was accepted")
	}
	if _, after, _ := dev.Stats(bg); after != writes {
		t.Errorf("refused writes reached the device: writes %d -> %d", writes, after)
	}

	// A stub that believes the pages smaller refuses the reply whole.
	small := pagedev.AttachArrayDevice(c.Client(), dev.Ref(), 2, 3, 3)
	if _, err := small.OpenPage(bg, small.ReadPageAsync(bg, 0)); err == nil {
		t.Error("a reply of the wrong size was opened")
	}
}

// TestKernelBatchTwoOperandStages drives the engine's two-operand
// stages at device level: the peer page moves device-to-device (or is
// read in place when the peer is this very object — an RMI there would
// queue behind the running method in the object's own mailbox and
// deadlock), and only the scalar partial returns.
func TestKernelBatchTwoOperandStages(t *testing.T) {
	c := startCluster(t, 2, 0)
	client := c.Client()
	a, err := pagedev.NewArrayDevice(bg, client, 0, "a", 2, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	defer a.Close(bg)
	b, err := pagedev.NewArrayDevice(bg, client, 1, "b", 2, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	defer b.Close(bg)
	for _, f := range []struct {
		dev *pagedev.ArrayDevice
		idx int
		v   float64
	}{{a, 0, 3}, {a, 1, 2}, {b, 1, 4}} {
		if err := f.dev.FillPage(bg, f.idx, f.v); err != nil {
			t.Fatal(err)
		}
	}
	full := pagedev.SubBox{Dim: [3]int{2, 2, 2}}
	page0With := func(peer *pagedev.ArrayDevice) pagedev.Batch {
		return pagedev.Batch{Peers: []rmi.Ref{peer.Ref()}, Regions: []pagedev.PipeRegion{{Index: 0, Box: full, Fold: true, Peers: []pagedev.PipePeer{{Peer: 0, Index: 1}}}}}
	}
	dot := resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.BinaryReduceStage(kernel.Dot)}}, nil)
	axpy := resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.BinaryStage(kernel.Axpy)}}, []float64{-0.5})

	// Cross-machine dot: page a[0] · page b[1] = 8 * 12; self dot a[0] · a[1] = 8 * 6.
	for _, tc := range []struct {
		peer *pagedev.ArrayDevice
		want float64
	}{{b, 8 * 12}, {a, 8 * 6}} {
		touched, parts, err := a.ApplyPipelineK(bg, dot, page0With(tc.peer))
		if err != nil || touched != 8 || parts[0].N != 8 || parts[0].Acc[0] != tc.want {
			t.Fatalf("dot with %v: touched %d, partial %+v, %v (want %v)", tc.peer.Ref(), touched, parts, err, tc.want)
		}
	}
	// A non-folding replica of a binary-reduce stage reports nothing.
	regs := page0With(b)
	regs.Regions[0].Fold = false
	if _, parts, err := a.ApplyPipelineK(bg, dot, regs); err != nil || parts[0].N != 0 {
		t.Fatalf("no-fold dot: %+v, %v", parts, err)
	}
	// AXPY: a[0] += -0.5 * b[1]  => 3 - 2 = 1 everywhere.
	if _, _, err := a.ApplyPipelineK(bg, axpy, page0With(b)); err != nil {
		t.Fatalf("axpy: %v", err)
	}
	if sum, err := a.Sum(bg, 0); err != nil || math.Abs(sum-8) > 1e-12 {
		t.Fatalf("after axpy sum = %v, %v", sum, err)
	}
}

// TestOperandBoxIsCheckedAgainstThePeersPages: a two-operand stage, a page
// copy among them, validates its box against the pages of the device that
// executes it; the peer's may be smaller. A box the peer's page does not
// hold is refused typed by the peer's own bounds — the same refusal whether
// the peer is on another machine, where its readSubBatch decodes the box, or
// co-located, where its page is reached directly — before any page is
// entered: nothing is read, and the destination page is bitwise untouched.
func TestOperandBoxIsCheckedAgainstThePeersPages(t *testing.T) {
	c := startCluster(t, 2, 0)
	client := c.Client()
	dev, err := pagedev.NewArrayDevice(bg, client, 0, "wide", 1, 4, 4, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close(bg)
	page := pagedev.NewArrayPage(4, 4, 4)
	for i := range page.Data {
		page.Data[i] = float64(i) + 0.5
	}
	if err := dev.WritePage(bg, page, 0); err != nil {
		t.Fatal(err)
	}
	before := pageBits(t, dev, 0)
	axpy := kernel.Pipeline{Stages: []kernel.Stage{kernel.BinaryStage(kernel.Axpy)}}
	cp := resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.BinaryStage(kernel.Copy)}}, nil)
	for _, machine := range []int{1, 0} {
		peer, err := pagedev.NewArrayDevice(bg, client, machine, "narrow", 1, 2, 2, 2, pagedev.DiskPrivate)
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close(bg)
		if err := peer.FillPage(bg, 0, 1); err != nil {
			t.Fatal(err)
		}
		reads, _, err := peer.Stats(bg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []pagedev.SubBox{
			{Lo: [3]int{0, 0, 2}, Dim: [3]int{1, 1, 2}}, // inside the 4x4x4 page; the peer's rows end at 2
			box(4, 4, 4),
		} {
			want := fmt.Sprintf("sub-box %+v outside page [2 2 2]", b)
			_, _, err := dev.ApplyPipelineK(bg, resolve(t, axpy, []float64{1}), fromPeer(peer, b))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("peer on machine %d, axpy over %+v: %v, want %q", machine, b, err, want)
			}
			_, _, err = dev.ApplyPipelineK(bg, cp, fromPeer(peer, b))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("peer on machine %d, pull of %+v: %v, want %q", machine, b, err, want)
			}
		}
		if after, _, err := peer.Stats(bg); err != nil || after != reads {
			t.Errorf("peer on machine %d: refused boxes read its page: reads %d -> %d, %v", machine, reads, after, err)
		}
		if !sameBits(pageBits(t, dev, 0), before) {
			t.Errorf("peer on machine %d: a refused box changed the destination page", machine)
		}
		// A box both pages hold is served from either placement.
		if _, _, err := dev.ApplyPipelineK(bg, resolve(t, axpy, []float64{0}), fromPeer(peer, box(2, 2, 2))); err != nil {
			t.Errorf("peer on machine %d, a box inside both pages: %v", machine, err)
		}
	}
}

// fromPeer is a one-region batch over box of page 0, its operand the same
// box of peer's page 0.
func fromPeer(peer *pagedev.ArrayDevice, box pagedev.SubBox) pagedev.Batch {
	return pagedev.Batch{Peers: []rmi.Ref{peer.Ref()}, Regions: []pagedev.PipeRegion{{Index: 0, Box: box, Peers: []pagedev.PipePeer{{Peer: 0, Index: 0}}}}}
}

// TestPersistAllBackings passivates and reactivates devices on each
// backing type: private memory, machine disk, and remote delegation.
func TestPersistAllBackings(t *testing.T) {
	c := startCluster(t, 2, 1)
	client := c.Client()
	st, err := persist.NewStore(bg, client, 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	defer st.Close(bg)

	// Private memory backing: contents serialize into the blob.
	priv, err := pagedev.NewArrayDevice(bg, client, 0, "priv", 2, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	if err := priv.FillPage(bg, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := st.Passivate(bg, priv.Ref(), "oop://b/priv"); err != nil {
		t.Fatalf("passivate private: %v", err)
	}
	ref, err := st.Activate(bg, "oop://b/priv")
	if err != nil {
		t.Fatalf("activate private: %v", err)
	}
	revived := pagedev.AttachArrayDevice(client, ref, 2, 2, 2)
	if s, err := revived.Sum(bg, 1); err != nil || s != 7*8 {
		t.Fatalf("private revived sum = %v, %v", s, err)
	}

	// Machine disk backing: geometry serializes, data stays on the disk.
	onDisk, err := pagedev.NewArrayDevice(bg, client, 0, "disk", 2, 2, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := onDisk.FillPage(bg, 0, -2); err != nil {
		t.Fatal(err)
	}
	if err := st.Passivate(bg, onDisk.Ref(), "oop://b/disk"); err != nil {
		t.Fatalf("passivate disk: %v", err)
	}
	ref, err = st.Activate(bg, "oop://b/disk")
	if err != nil {
		t.Fatalf("activate disk: %v", err)
	}
	revived = pagedev.AttachArrayDevice(client, ref, 2, 2, 2)
	if s, err := revived.Sum(bg, 0); err != nil || s != -2*8 {
		t.Fatalf("disk revived sum = %v, %v", s, err)
	}

	// Remote delegation backing: the wrapper's ref serializes; the
	// original process keeps the data.
	origin, err := pagedev.NewDevice(bg, client, 1, "origin", 2, 64, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close(bg)
	wrapper, err := pagedev.NewArrayDeviceFromProcess(bg, client, 0, origin.Ref(), 2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrapper.FillPage(bg, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Passivate(bg, wrapper.Ref(), "oop://b/remote"); err != nil {
		t.Fatalf("passivate remote-backed: %v", err)
	}
	ref, err = st.Activate(bg, "oop://b/remote")
	if err != nil {
		t.Fatalf("activate remote-backed: %v", err)
	}
	revived = pagedev.AttachArrayDevice(client, ref, 2, 2, 2)
	if s, err := revived.Sum(bg, 0); err != nil || s != 5*8 {
		t.Fatalf("remote-backed revived sum = %v, %v", s, err)
	}
}

// TestStatsAndRefSurvival checks Stats accounting and that Ref is stable
// across stub reattachment.
func TestStatsAndRefSurvival(t *testing.T) {
	c := startCluster(t, 1, 0)
	dev, err := pagedev.NewDevice(bg, c.Client(), 0, "stats", 2, 32, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close(bg)
	buf := make([]byte, 32)
	for i := 0; i < 3; i++ {
		if err := dev.Write(bg, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dev.Read(bg, 0); err != nil {
		t.Fatal(err)
	}
	r, w, err := dev.Stats(bg)
	if err != nil || r != 1 || w != 3 {
		t.Fatalf("stats = (%d,%d), %v", r, w, err)
	}
	ref := dev.Ref()
	again := pagedev.AttachDevice(c.Client(), ref)
	if again.Ref() != ref {
		t.Fatal("ref changed across attach")
	}
	_ = rmi.Ref{}
}
