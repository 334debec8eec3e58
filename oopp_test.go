// End-to-end integration tests through the public facade: the library as
// a downstream user sees it. Each test is a complete scenario from the
// paper, run against a live in-process cluster (and TCP where marked).
package oopp_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"oopp"
	"oopp/internal/metrics"
)

// bg is the neutral context for call sites with no deadline.
var bg = context.Background()

// metricsSnapshot reads the cluster-wide payload-bytes-sent counter
// (every frame counted once at its sender, server-to-server included).
func metricsSnapshot() int64 { return metrics.Default.Snapshot().BytesSent }

func TestFacadeQuickstartScenario(t *testing.T) {
	cl, err := oopp.NewLocalCluster(3, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	client := cl.Client()

	// §2: remote PageDevice.
	store, err := oopp.NewDevice(bg, client, 1, "pagefile", 10, 1024, oopp.DiskPrivate)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	page := oopp.NewPage(1024)
	for i := range page.Data {
		page.Data[i] = byte(i)
	}
	if err := store.Write(bg, 7, page.Data); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := store.Read(bg, 7)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, page.Data) {
		t.Fatal("round trip mismatch")
	}

	// §2: remote memory.
	data, err := oopp.NewFloat64Array(bg, client, 2, 1024)
	if err != nil {
		t.Fatalf("NewFloat64Array: %v", err)
	}
	if err := data.Set(bg, 7, 3.1415); err != nil {
		t.Fatalf("set: %v", err)
	}
	v, err := data.Get(bg, 7)
	if err != nil || v != 3.1415 {
		t.Fatalf("get: %v %v", v, err)
	}
	if err := data.Free(bg); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := store.Close(bg); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := store.Read(bg, 0); err == nil {
		t.Fatal("process alive after delete")
	}
}

func TestFacadeArrayScenario(t *testing.T) {
	const devices = 2
	const N, n = 16, 8
	cl, err := oopp.NewLocalCluster(devices, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()

	pm, err := oopp.NewPageMap("roundrobin", N/n, N/n, N/n, devices)
	if err != nil {
		t.Fatalf("pagemap: %v", err)
	}
	storage, err := oopp.CreateBlockStorage(bg, cl.Client(), []int{0, 1}, "arr", pm.PagesPerDevice(), n, n, n, oopp.DiskPrivate)
	if err != nil {
		t.Fatalf("storage: %v", err)
	}
	defer storage.Close(bg)
	arr, err := oopp.NewArray(bg, storage, pm, N, N, N, n, n, n)
	if err != nil {
		t.Fatalf("array: %v", err)
	}

	full := oopp.Box(N, N, N)
	if err := arr.Fill(bg, full, 2); err != nil {
		t.Fatalf("fill: %v", err)
	}
	dom := oopp.NewDomain(3, 13, 2, 12, 0, 16)
	sub := make([]float64, dom.Size())
	if err := arr.Read(bg, sub, dom); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i, v := range sub {
		if v != 2 {
			t.Fatalf("element %d = %v", i, v)
		}
	}
	s, err := arr.Sum(bg, full)
	if err != nil || s != float64(2*full.Size()) {
		t.Fatalf("sum = %v, %v", s, err)
	}
	if err := arr.Scale(bg, full, 0.5); err != nil {
		t.Fatalf("scale: %v", err)
	}
	acc, _, err := arr.Reduce(bg, full, oopp.KernelMinMax)
	if err != nil || acc[0] != 1 || acc[1] != 1 {
		t.Fatalf("minmax = %v, %v", acc, err)
	}
}

func TestFacadeFFTScenario(t *testing.T) {
	const n = 8
	const p = 2
	cl, err := oopp.NewLocalCluster(p, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()

	x := make([]complex128, n*n*n)
	for i := range x {
		x[i] = complex(float64(i%13)-6, float64(i%7)-3)
	}
	want := append([]complex128(nil), x...)
	if err := oopp.FFT3DLocal(want, n, n, n, -1); err != nil {
		t.Fatal(err)
	}

	f, err := oopp.NewPFFT(bg, cl.Client(), []int{0, 1}, n, n, n)
	if err != nil {
		t.Fatalf("pfft: %v", err)
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
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-9*(1+cmplx.Abs(want[i])) {
			t.Fatalf("bin %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestFacadePersistenceScenario(t *testing.T) {
	cl, err := oopp.NewLocalCluster(2, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	client := cl.Client()

	mgr, err := oopp.NewManager(bg, client, 0, []int{0, 1})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close(bg)

	dev, err := oopp.NewArrayDevice(bg, client, 1, "ds", 2, 4, 4, 4, oopp.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	if err := dev.FillPage(bg, 0, 3); err != nil {
		t.Fatalf("fill: %v", err)
	}
	addr := oopp.MustParseAddress("oop://test/facade/dev")
	if err := mgr.Bind(bg, addr, dev.Ref()); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := mgr.Deactivate(bg, addr); err != nil {
		t.Fatalf("deactivate: %v", err)
	}
	ref, err := mgr.Resolve(bg, addr)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	revived := oopp.AttachArrayDevice(client, ref, 4, 4, 4)
	s, err := revived.Sum(bg, 0)
	if err != nil || s != 3*64 {
		t.Fatalf("sum = %v, %v", s, err)
	}
	if err := mgr.Destroy(bg, addr); err != nil {
		t.Fatalf("destroy: %v", err)
	}
}

func TestFacadeGroupsAndFutures(t *testing.T) {
	cl, err := oopp.NewLocalCluster(4, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	client := cl.Client()

	// Spawn a group of remote memory blocks and drive them via futures.
	arrays := make([]*oopp.Float64Array, 4)
	for i := range arrays {
		arrays[i], err = oopp.NewFloat64Array(bg, client, i, 100)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	for i, a := range arrays {
		if err := a.Fill(bg, float64(i+1)); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	total := 0.0
	for _, a := range arrays {
		s, err := a.Sum(bg)
		if err != nil {
			t.Fatalf("sum: %v", err)
		}
		total += s
	}
	if total != 100*(1+2+3+4) {
		t.Fatalf("total = %v", total)
	}
	// Refs travel: attach a stub from another machine's client.
	other := cl.Machine(3).Client()
	stub := oopp.AttachDevice(other, arrays[0].Ref())
	_ = stub // devices and arrays share the ref concept; just type-check

	g := oopp.AttachCollection[any](client, []oopp.Ref{arrays[0].Ref(), arrays[1].Ref()})
	if err := g.Barrier(bg); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	for _, a := range arrays {
		if err := a.Free(bg); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
}

func TestFacadeTCPCluster(t *testing.T) {
	cl, err := oopp.NewCluster(oopp.ClusterConfig{Machines: 2, Transport: oopp.TCPTransport()})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	dev, err := oopp.NewDevice(bg, cl.Client(), 1, "tcp-dev", 2, 256, oopp.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)
	payload := bytes.Repeat([]byte{7}, 256)
	if err := dev.Write(bg, 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := dev.Read(bg, 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read: %v", err)
	}
}

func TestFacadePublishedDataset(t *testing.T) {
	cl, err := oopp.NewLocalCluster(2, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	client := cl.Client()
	mgr, err := oopp.NewManager(bg, client, 0, []int{0, 1})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close(bg)

	pm, err := oopp.NewPageMap("hash", 2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := oopp.CreateBlockStorage(bg, client, []int{0, 1}, "pub", pm.PagesPerDevice(), 4, 4, 4, oopp.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := oopp.NewArray(bg, storage, pm, 8, 8, 8, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	full := oopp.Box(8, 8, 8)
	if err := arr.Fill(bg, full, 1.5); err != nil {
		t.Fatal(err)
	}
	base := oopp.MustParseAddress("oop://facade/ds")
	if err := oopp.PublishArray(bg, mgr, client, 0, base, arr); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := oopp.DeactivateArray(bg, mgr, base, 2); err != nil {
		t.Fatalf("deactivate: %v", err)
	}
	reopened, err := oopp.OpenArray(bg, mgr, client, base)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s, err := reopened.Sum(bg, full)
	if err != nil || s != 1.5*float64(full.Size()) {
		t.Fatalf("sum = %v, %v", s, err)
	}
	// Dot/Norm through the facade-visible Array methods.
	d, err := reopened.Dot(bg, reopened, full)
	if err != nil || math.Abs(d-2.25*float64(full.Size())) > 1e-9 {
		t.Fatalf("dot = %v, %v", d, err)
	}
	if err := oopp.DestroyArray(bg, mgr, base, 2); err != nil {
		t.Fatalf("destroy: %v", err)
	}

	// Remaining wrappers: attach, stores, name service.
	ns, err := oopp.NewNameService(bg, client, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close(bg)
	st, err := oopp.NewStore(bg, client, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(bg)
	page := oopp.NewArrayPage(2, 2, 2)
	if len(page.Data) != 8 {
		t.Fatal("array page geometry")
	}
	var blocks []oopp.Ref
	for m := 0; m < 2; m++ {
		blk, err := oopp.NewFloat64Array(bg, client, m, 4)
		if err != nil {
			t.Fatalf("block on machine %d: %v", m, err)
		}
		blocks = append(blocks, blk.Ref())
	}
	group := oopp.AttachCollection[any](client, blocks)
	if err := group.Barrier(bg); err != nil {
		t.Fatal(err)
	}
	if err := group.Destroy(bg); err != nil {
		t.Fatal(err)
	}
	wrapped, err := oopp.NewDevice(bg, client, 0, "w", 1, 64, oopp.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close(bg)
	fromProc, err := oopp.NewArrayDeviceFromProcess(bg, client, 1, wrapped.Ref(), 1, 2, 2, 2)
	if err != nil {
		t.Fatalf("from process: %v", err)
	}
	if err := fromProc.Close(bg); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeErrorsSurface(t *testing.T) {
	cl, err := oopp.NewLocalCluster(1, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()

	if _, err := oopp.NewDevice(bg, cl.Client(), 0, "bad", -1, 0, oopp.DiskPrivate); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := oopp.NewPageMap("nope", 1, 1, 1, 1); err == nil {
		t.Error("unknown layout accepted")
	}
	if _, err := oopp.ParseAddress("not-an-address"); err == nil {
		t.Error("bad address accepted")
	}
	if len(oopp.PageMapNames()) == 0 {
		t.Error("no layouts")
	}
	var notFound = errors.New("x")
	_ = notFound
	if math.IsNaN(0) {
		t.Error("unreachable")
	}
}

// TestFacadeOwnerComputesScenario runs the owner-computes surface end
// to end through the facade — user kernels via the Apply/Reduce escape
// hatch, the owner-computes Jacobi against the client-side path, and
// the E13 acceptance bound: at 8 devices the owner sweeps must move at
// least 3x fewer bytes than the client-side sweeps.
func TestFacadeOwnerComputesScenario(t *testing.T) {
	const devices = 8
	const N, page = 32, 4
	cl, err := oopp.NewLocalCluster(devices, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	client := cl.Client()
	machines := make([]int, devices)
	for i := range machines {
		machines[i] = i
	}
	grid := N / page
	mk := func(name string, banks int) *oopp.Array {
		pm, err := oopp.NewPageMap("striped", grid, grid, grid, devices)
		if err != nil {
			t.Fatal(err)
		}
		storage, err := oopp.CreateBlockStorage(bg, client, machines, name, banks*pm.PagesPerDevice(), page, page, page, oopp.DiskPrivate)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := oopp.NewArray(bg, storage, pm, N, N, N, page, page, page)
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	own := mk("own", 2)
	ca := mk("ca", 1)
	cb := mk("cb", 1)

	full := oopp.Box(N, N, N)
	seed := func(arr *oopp.Array) {
		if err := arr.Fill(bg, full, 0); err != nil {
			t.Fatal(err)
		}
		hot := oopp.NewDomain(0, 1, 0, N, 0, N)
		face := make([]float64, hot.Size())
		for i := range face {
			face[i] = 100
		}
		if err := arr.Write(bg, face, hot); err != nil {
			t.Fatal(err)
		}
	}

	// A user kernel through the escape hatch (registered in init below,
	// like class registration: names are once-per-process).
	seed(own)
	if err := own.Apply(bg, oopp.NewDomain(0, 1, 0, N, 0, N), "facade.halve"); err != nil {
		t.Fatalf("apply user kernel: %v", err)
	}
	if acc, _, err := own.Reduce(bg, full, oopp.KernelMinMax); err != nil || acc[0] != 0 || acc[1] != 50 {
		t.Fatalf("after halve: minmax = %v, %v", acc, err)
	}
	acc, n, err := own.Reduce(bg, full, oopp.KernelAbsMax)
	if err != nil || n != int64(full.Size()) || acc[0] != 50 {
		t.Fatalf("absmax = %v (n=%d), %v", acc, n, err)
	}

	// Owner vs client Jacobi: identical results, >= 3x fewer bytes moved
	// (the E13 acceptance bound; the measured margin is ~6x).
	const iters = 4
	seed(own)
	seed(ca)
	bytesDuring := func(f func()) int64 {
		before := metricsSnapshot()
		f()
		return metricsSnapshot() - before
	}
	var ownRes, cliRes float64
	ownBytes := bytesDuring(func() {
		r, err := oopp.JacobiOwner(bg, own, iters)
		if err != nil {
			t.Fatal(err)
		}
		ownRes = r
	})
	cliBytes := bytesDuring(func() {
		r, err := oopp.Jacobi(bg, ca, cb, iters, 4)
		if err != nil {
			t.Fatal(err)
		}
		cliRes = r
	})
	if math.Abs(ownRes-cliRes) > 1e-12 {
		t.Fatalf("residuals diverge: owner %v client %v", ownRes, cliRes)
	}
	gotOwn := make([]float64, full.Size())
	gotCli := make([]float64, full.Size())
	if err := own.Read(bg, gotOwn, full); err != nil {
		t.Fatal(err)
	}
	if err := ca.Read(bg, gotCli, full); err != nil {
		t.Fatal(err)
	}
	for i := range gotOwn {
		if math.Abs(gotOwn[i]-gotCli[i]) > 1e-12 {
			t.Fatalf("element %d: owner %v client %v", i, gotOwn[i], gotCli[i])
		}
	}
	if cliBytes < 3*ownBytes {
		t.Fatalf("owner sweeps moved %d bytes, client %d — want >= 3x reduction", ownBytes, cliBytes)
	}
}

func init() {
	oopp.RegisterMapKernel("facade.halve", oopp.MapKernel{Fn: func(row, _ []float64) {
		for i := range row {
			row[i] /= 2
		}
	}})
}
