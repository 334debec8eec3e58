package pagedev_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/disk"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// bg is the neutral context for call sites with no deadline.
var bg = context.Background()

// resolve is Pipeline.Resolve for a test's chain: p with one parameter
// vector per stage.
func resolve(t testing.TB, p kernel.Pipeline, params ...[]float64) kernel.Chain {
	t.Helper()
	c, err := p.Resolve(params)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startCluster(t testing.TB, machines, disks int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewLocal(machines, disks)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

// TestPaperPageDeviceExample reproduces §2's first worked example: create
// a PageDevice on machine 1 from machine 0, generate a page, store it at
// address 17, read it back.
func TestPaperPageDeviceExample(t *testing.T) {
	c := startCluster(t, 2, 0)
	client := c.Client()

	const (
		numberOfPages = 10
		pageSize      = 1024
	)
	pageStore, err := pagedev.NewDevice(bg, client, 1, "pagefile", numberOfPages, pageSize, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("new(machine 1) PageDevice: %v", err)
	}

	page := pagedev.NewPage(pageSize)
	for i := range page.Data {
		page.Data[i] = byte(i % 251)
	}
	// The paper writes to PageIndex 17 with NumberOfPages 10 — out of
	// range; we use a valid address and also verify the range check.
	const pageAddress = 7
	if err := pageStore.Write(bg, pageAddress, page.Data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := pageStore.Write(bg, 17, page.Data); err == nil {
		t.Fatal("write at page 17 of a 10-page device must fail")
	}

	got, err := pageStore.Read(bg, pageAddress)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, page.Data) {
		t.Fatal("read back mismatch")
	}
	if err := pageStore.Write(bg, pageAddress, page.Data[1:]); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("device page size is %d", pageSize)) {
		t.Fatalf("short write to a %d-byte page: %v", pageSize, err)
	}

	n, err := pageStore.NumPages(bg)
	if err != nil || n != numberOfPages {
		t.Fatalf("NumPages = %d, %v", n, err)
	}
	name, err := pageStore.Name(bg)
	if err != nil || name != "pagefile" {
		t.Fatalf("Name = %q, %v", name, err)
	}
	r, w, err := pageStore.Stats(bg)
	if err != nil || r != 1 || w != 1 {
		t.Fatalf("Stats = (%d,%d), %v", r, w, err)
	}

	// delete PageStore -> process terminates.
	if err := pageStore.Close(bg); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := pageStore.Read(bg, 0); !errors.Is(err, rmi.ErrNoSuchObject) {
		t.Fatalf("read after delete: %v", err)
	}
}

func TestDeviceOnClusterDisk(t *testing.T) {
	c := startCluster(t, 2, 1)
	dev, err := pagedev.NewDevice(bg, c.Client(), 1, "d", 16, 512, 0)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer dev.Close(bg)

	data := bytes.Repeat([]byte{0x5A}, 512)
	if err := dev.Write(bg, 3, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := dev.Read(bg, 3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	// The write really landed on the machine's disk.
	reads, writes := c.Machine(1).Disks()[0].Ops()
	if writes == 0 {
		t.Errorf("disk saw no writes (reads=%d writes=%d)", reads, writes)
	}
}

func TestConstructorValidation(t *testing.T) {
	c := startCluster(t, 1, 1)
	client := c.Client()
	cases := []struct {
		name string
		fn   func() error
	}{
		{"zero pages", func() error {
			_, err := pagedev.NewDevice(bg, client, 0, "x", 0, 512, pagedev.DiskPrivate)
			return err
		}},
		{"zero page size", func() error {
			_, err := pagedev.NewDevice(bg, client, 0, "x", 4, 0, pagedev.DiskPrivate)
			return err
		}},
		{"missing disk", func() error {
			_, err := pagedev.NewDevice(bg, client, 0, "x", 4, 512, 5)
			return err
		}},
		{"disk too small", func() error {
			_, err := pagedev.NewDevice(bg, client, 0, "x", 1<<20, 1<<20, 0)
			return err
		}},
		{"bad dims", func() error {
			_, err := pagedev.NewArrayDevice(bg, client, 0, "x", 4, 0, 2, 2, pagedev.DiskPrivate)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: expected constructor error", tc.name)
		}
	}
}

func TestWrongPageSizeRejected(t *testing.T) {
	c := startCluster(t, 1, 0)
	dev, err := pagedev.NewDevice(bg, c.Client(), 0, "d", 4, 256, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer dev.Close(bg)
	if err := dev.Write(bg, 0, make([]byte, 100)); err == nil {
		t.Fatal("short page accepted")
	}
	if err := dev.Write(bg, -1, make([]byte, 256)); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := dev.Read(bg, 4); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

// TestArrayDeviceSumBothWays reproduces §3: the sum of a page computed by
// (a) copying the page to the local machine and summing locally, and
// (b) executing sum remotely — both must agree.
func TestArrayDeviceSumBothWays(t *testing.T) {
	c := startCluster(t, 2, 0)
	client := c.Client()

	const n1, n2, n3 = 8, 8, 8
	blocks, err := pagedev.NewArrayDevice(bg, client, 1, "array_blocks", 6, n1, n2, n3, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("new ArrayPageDevice: %v", err)
	}
	defer blocks.Close(bg)

	page := pagedev.NewArrayPage(n1, n2, n3)
	for i := range page.Data {
		page.Data[i] = float64(i%17) - 8
	}
	const addr = 4
	if err := blocks.WritePage(bg, page, addr); err != nil {
		t.Fatalf("write page: %v", err)
	}

	// (a) Move the data to the computation.
	local := pagedev.NewArrayPage(n1, n2, n3)
	if err := blocks.ReadPage(bg, local, addr); err != nil {
		t.Fatalf("read page: %v", err)
	}
	localSum := local.Sum()

	// (b) Move the computation to the data.
	remoteSum, err := blocks.Sum(bg, addr)
	if err != nil {
		t.Fatalf("remote sum: %v", err)
	}

	if math.Abs(localSum-remoteSum) > 1e-9 {
		t.Fatalf("local %v != remote %v", localSum, remoteSum)
	}
	want := page.Sum()
	if math.Abs(localSum-want) > 1e-9 {
		t.Fatalf("sum %v, want %v", localSum, want)
	}
}

func TestArrayDeviceRemoteOps(t *testing.T) {
	c := startCluster(t, 2, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 1, "ops", 3, 4, 4, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("NewArrayDevice: %v", err)
	}
	defer dev.Close(bg)

	if err := dev.FillPage(bg, 0, 2.0); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if err := dev.FillPage(bg, 1, -1.0); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if err := dev.FillPage(bg, 2, 0.5); err != nil {
		t.Fatalf("fill: %v", err)
	}
	s, err := dev.Sum(bg, 0)
	if err != nil || s != 128 {
		t.Fatalf("sum page 0 = %v, %v (want 128)", s, err)
	}
	ln1, ln2, ln3 := dev.Dims()
	if ln1 != 4 || ln2 != 4 || ln3 != 4 {
		t.Fatalf("local dims = %d,%d,%d", ln1, ln2, ln3)
	}
	// Dim-mismatched pages rejected client-side.
	bad := pagedev.NewArrayPage(2, 2, 2)
	if err := dev.ReadPage(bg, bad, 0); err == nil {
		t.Fatal("dim mismatch accepted in ReadPage")
	}
	if err := dev.WritePage(bg, bad, 0); err == nil {
		t.Fatal("dim mismatch accepted in WritePage")
	}
}

// TestInheritedMethodsOnDerived verifies process inheritance (§3): the
// derived ArrayPageDevice still speaks the base PageDevice protocol.
func TestInheritedMethodsOnDerived(t *testing.T) {
	c := startCluster(t, 1, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "derived", 2, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("NewArrayDevice: %v", err)
	}
	defer dev.Close(bg)

	// Base protocol: raw byte read/write on the derived process.
	raw := make([]byte, 2*2*2*8)
	for i := range raw {
		raw[i] = byte(i)
	}
	if err := dev.Write(bg, 0, raw); err != nil {
		t.Fatalf("base write on derived: %v", err)
	}
	got, err := dev.Read(bg, 0)
	if err != nil {
		t.Fatalf("base read on derived: %v", err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("base round trip mismatch")
	}
	// The derived constructor computed the page size: 2*2*2 doubles, no less.
	if err := dev.Write(bg, 0, raw[:63]); err == nil || !strings.Contains(err.Error(), "device page size is 64") {
		t.Fatalf("63-byte write to a 64-byte page: %v", err)
	}
	n, err := dev.NumPages(bg)
	if err != nil || n != 2 {
		t.Fatalf("NumPages = %d, %v", n, err)
	}
	// And base devices must NOT have derived methods.
	base, err := pagedev.NewDevice(bg, c.Client(), 0, "base", 2, 64, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer base.Close(bg)
	attached := pagedev.AttachArrayDevice(c.Client(), base.Ref(), 2, 2, 2)
	if _, err := attached.Sum(bg, 0); !errors.Is(err, rmi.ErrNoSuchMethod) {
		t.Fatalf("derived method on base process: %v", err)
	}
}

// TestConstructFromProcess exercises the §5 use case: a new
// ArrayPageDevice built around an existing PageDevice process; the two
// co-exist, and deleting the wrapper leaves the original intact. The
// remote Sum is bitwise ArrayPage.Sum through the wrapper as on a device
// of its own disk.
func TestConstructFromProcess(t *testing.T) {
	c := startCluster(t, 3, 1)
	client := c.Client()

	const n1, n2, n3 = 4, 4, 2
	pageSize := n1 * n2 * n3 * 8
	// A plain PageDevice on machine 1, holding raw bytes.
	pd, err := pagedev.NewDevice(bg, client, 1, "legacy", 4, pageSize, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer pd.Close(bg)

	// Seed page 2 with packed float64s through the raw protocol.
	vals := make([]float64, n1*n2*n3)
	for i := range vals {
		vals[i] = float64(i)
	}
	raw := make([]byte, pageSize)
	if err := pagedev.Float64sToBytes(raw, vals); err != nil {
		t.Fatal(err)
	}
	if err := pd.Write(bg, 2, raw); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	// Wrap it in an ArrayPageDevice on machine 2 (cross-machine
	// delegation: the wrapper's storage I/O happens over RMI).
	wrapper, err := pagedev.NewArrayDeviceFromProcess(bg, client, 2, pd.Ref(), 4, n1, n2, n3)
	if err != nil {
		t.Fatalf("NewArrayDeviceFromProcess: %v", err)
	}

	sum, err := wrapper.Sum(bg, 2)
	if err != nil {
		t.Fatalf("wrapper sum: %v", err)
	}
	want := float64(len(vals)*(len(vals)-1)) / 2
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}

	// Writes through the wrapper land in the original device.
	page := pagedev.NewArrayPage(n1, n2, n3)
	page.Fill(1)
	if err := wrapper.WritePage(bg, page, 0); err != nil {
		t.Fatalf("wrapper write: %v", err)
	}
	got, err := pd.Read(bg, 0)
	if err != nil {
		t.Fatalf("original read: %v", err)
	}
	back := make([]float64, n1*n2*n3)
	if err := pagedev.BytesToFloat64s(back, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range back {
		if v != 1 {
			t.Fatalf("element %d = %v through original device", i, v)
		}
	}

	// Values whose sum depends on the order they are added in: the kernel
	// batch behind Sum must add them as ArrayPage.Sum does.
	odd := pagedev.NewArrayPage(n1, n2, n3)
	for i := range odd.Data {
		odd.Data[i] = math.Ldexp(1+float64(i)/7, (i*13)%41-20)
	}
	onDisk, err := pagedev.NewArrayDevice(bg, client, 1, "ondisk", 1, n1, n2, n3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer onDisk.Close(bg)
	for _, tc := range []struct {
		what  string
		dev   *pagedev.ArrayDevice
		index int
	}{{"disk-backed", onDisk, 0}, {"remote-backed", wrapper, 3}} {
		if err := tc.dev.WritePage(bg, odd, tc.index); err != nil {
			t.Fatal(err)
		}
		if got, err := tc.dev.Sum(bg, tc.index); err != nil || math.Float64bits(got) != math.Float64bits(odd.Sum()) {
			t.Errorf("%s device: remote sum %v (%v), ArrayPage.Sum %v: want the same bits", tc.what, got, err, odd.Sum())
		}
	}

	// Deleting the wrapper must not touch the original process.
	if err := wrapper.Close(bg); err != nil {
		t.Fatalf("wrapper close: %v", err)
	}
	if _, err := pd.Read(bg, 0); err != nil {
		t.Fatalf("original died with wrapper: %v", err)
	}
}

// TestParallelReadsAcrossDevices is the §4 split-loop example at package
// level: N devices on N machines, one page from each; the async form must
// overlap device time.
func TestParallelReadsAcrossDevices(t *testing.T) {
	const n = 4
	const seek = 20 * time.Millisecond
	c, err := cluster.New(cluster.Config{
		Machines:        n,
		DisksPerMachine: 1,
		DiskSize:        1 << 16,
		DiskModel:       disk.Model{Seek: seek},
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Shutdown()
	client := c.Client()

	devs := make([]*pagedev.Device, n)
	for i := range devs {
		devs[i], err = pagedev.NewDevice(bg, client, i, "d", 4, 1024, 0)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	page := make([]byte, 1024)
	for _, d := range devs {
		if err := d.Write(bg, 0, page); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}

	// Sequential loop (§2 semantics): ~n * seek.
	start := time.Now()
	for _, d := range devs {
		if _, err := d.Read(bg, 0); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	seq := time.Since(start)

	// Split loop (§4): issue all, then collect all: ~1 * seek.
	start = time.Now()
	futs := make([]*rmi.Future, n)
	for i, d := range devs {
		futs[i] = d.ReadAsync(bg, 0)
	}
	for _, f := range futs {
		if err := f.Err(bg); err != nil {
			t.Fatalf("async read: %v", err)
		}
	}
	par := time.Since(start)

	if seq < time.Duration(n)*seek {
		t.Errorf("sequential too fast: %v", seq)
	}
	if par >= seq*3/4 {
		t.Errorf("split loop did not parallelize I/O: seq=%v par=%v", seq, par)
	}
}

// Property: ArrayPage indexing is a bijection onto [0, N1*N2*N3).
func TestQuickArrayPageIndexBijection(t *testing.T) {
	f := func(a, b, c uint8) bool {
		n1 := int(a%4) + 1
		n2 := int(b%4) + 1
		n3 := int(c%4) + 1
		p := pagedev.NewArrayPage(n1, n2, n3)
		seen := make(map[int]bool)
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				for k := 0; k < n3; k++ {
					idx := p.Index(i, j, k)
					if idx < 0 || idx >= len(p.Data) || seen[idx] {
						return false
					}
					seen[idx] = true
				}
			}
		}
		return len(seen) == len(p.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Float64sToBytes / BytesToFloat64s are inverse bijections.
func TestQuickPackUnpack(t *testing.T) {
	f := func(vals []float64) bool {
		buf := make([]byte, 8*len(vals))
		if err := pagedev.Float64sToBytes(buf, vals); err != nil {
			return false
		}
		out := make([]float64, len(vals))
		if err := pagedev.BytesToFloat64s(out, buf); err != nil {
			return false
		}
		for i := range vals {
			if math.Float64bits(out[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Mismatched sizes error.
	if err := pagedev.Float64sToBytes(make([]byte, 7), make([]float64, 1)); err == nil {
		t.Fatal("bad pack size accepted")
	}
	if err := pagedev.BytesToFloat64s(make([]float64, 1), make([]byte, 9)); err == nil {
		t.Fatal("bad unpack size accepted")
	}
}

func TestArrayPageValueOps(t *testing.T) {
	p := pagedev.NewArrayPage(2, 3, 4)
	if len(p.Data) != 24 {
		t.Fatalf("geometry: %d elems", len(p.Data))
	}
	p.Set(1, 2, 3, 42)
	if p.Data[p.Index(1, 2, 3)] != 42 {
		t.Fatal("Index/Set mismatch")
	}
	p.Fill(2)
	if s := p.Sum(); s != 48 {
		t.Fatalf("sum = %v", s)
	}
	p.Scale(0.5)
	if s := p.Sum(); s != 24 {
		t.Fatalf("scaled sum = %v", s)
	}
	pg := pagedev.NewPage(16)
	if pg.Len() != 16 {
		t.Fatalf("page len = %d", pg.Len())
	}
}
