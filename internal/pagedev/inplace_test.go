package pagedev_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/disk"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Device methods compute on the resident page itself. These tests pin
// the three things the old load/compute/store copies gave for free:
// readers outside the mailbox never see a page mid-mutation, a method
// that fails has stored nothing, and every backing — resident, file,
// another process — produces the same pages, partials and accounting.

func box(d0, d1, d2 int) pagedev.SubBox { return pagedev.SubBox{Dim: [3]int{d0, d1, d2}} }

// readSubs is the peer-pull lane as a raw call: the row-packed values of
// one region per request, in request order.
func readSubs(client *rmi.Client, ref rmi.Ref, idx []int, b pagedev.SubBox) ([][]float64, error) {
	d, err := client.Call(bg, ref, "readSubBatch", func(e *wire.Encoder) error {
		e.PutInt(len(idx))
		for _, i := range idx {
			e.PutInt(i)
			for _, v := range append(b.Lo[:], b.Dim[:]...) {
				e.PutInt(v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.Release()
	out := make([][]float64, len(idx))
	for i := range out {
		out[i] = d.Float64s()
	}
	return out, d.Err()
}

// TestServedPagesAreNeverTorn hammers the concurrent readSubBatch lane
// from a second machine's client while the device runs two-stage chains
// (+1, +1) over the same pages in place. Every page starts at 1, so a
// page between rounds is all one odd value; a reader that got in between
// the two stages would see an even one, and one that got in mid-stage a
// mixed page. Run under -race this is also the data-race check of the
// lock beside the disk's bytes — which is the disk's, not the device's:
// the second case reads through another device opened on the same
// machine disk, which aliases the same pages and shares nothing else
// with the sweeping one. The "workers" cases sweep pages large enough
// that the batch is shared among helper goroutines, each holding its own
// page's byte range of the disk; there the alias device cuts the same
// bytes into pages half the size, so its ranges are not the sweeper's.
func TestServedPagesAreNeverTorn(t *testing.T) {
	t.Run("one device", func(t *testing.T) { hammerPages(t, pagedev.DiskPrivate, 16, 16, 300) })
	t.Run("two devices on one disk", func(t *testing.T) { hammerPages(t, 0, 16, 16, 300) })
	t.Run("workers, one device", func(t *testing.T) { hammerPages(t, pagedev.DiskPrivate, bigN, bigN, 40) })
	t.Run("workers, two devices on one disk, two page sizes", func(t *testing.T) { hammerPages(t, 0, bigN, bigN/2, 40) })
}

// bigN is a page edge whose one whole-page region already exceeds the
// engine's worker threshold (42³ = 74088 elements), and whose pages, 9.04
// of the disk lock's granules each, start and end in the middle of one.
const bigN = 42

// hammerPages sweeps 4 pages of n³ on one device and reads through served:
// the same device, or with a machine disk a second device on it whose
// pages are sn×n×n — the sweeper's, or each the half of one.
func hammerPages(t *testing.T, diskIndex, n, sn, rounds int) {
	const pages = 4
	c := startCluster(t, 2, 1)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "hammer", pages, n, n, n, diskIndex)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close(bg)
	served := dev
	if diskIndex != pagedev.DiskPrivate {
		if served, err = pagedev.NewArrayDevice(bg, c.Client(), 0, "alias", pages*n/sn, sn, n, n, diskIndex); err != nil {
			t.Fatal(err)
		}
		defer served.Close(bg)
	}
	var idx []int
	var regions []pagedev.PipeRegion
	for i := 0; i < pages; i++ {
		if err := dev.FillPage(bg, i, 1); err != nil {
			t.Fatal(err)
		}
		regions = append(regions, pagedev.PipeRegion{Index: i, Box: box(n, n, n)})
	}
	for i := 0; i < pages*n/sn; i++ {
		idx = append(idx, i)
	}
	twice := kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage(kernel.AddC), kernel.MapStage(kernel.AddC)}}

	swept := make(chan error, 1)
	go func() {
		for k := 0; k < rounds; k++ {
			if _, _, err := dev.ApplyPipelineK(bg, resolve(t, twice, []float64{1}, []float64{1}), pagedev.Batch{Regions: regions}); err != nil {
				swept <- err
				return
			}
		}
		swept <- nil
	}()
	reader := c.Machine(1).Env().Client
	for pull, sweeping := 0, true; sweeping || pull == 0; pull++ {
		select {
		case err := <-swept:
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			sweeping = false
		default:
		}
		// Whole pages and, every other pull, an interior sub-box (rows
		// gathered one by one under the same lock).
		b := box(sn, n, n)
		if pull%2 == 1 {
			b = pagedev.SubBox{Lo: [3]int{1, 2, 3}, Dim: [3]int{sn - 2, n - 3, n - 4}}
		}
		got, err := readSubs(reader, served.Ref(), idx, b)
		if err != nil {
			t.Fatalf("readSubBatch: %v", err)
		}
		// And a page through the byte protocol, which copies it off the
		// disk instead of viewing it.
		raw, err := served.Read(bg, pull%len(idx))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		bytePage := make([]float64, sn*n*n)
		if err := pagedev.BytesToFloat64s(bytePage, raw); err != nil {
			t.Fatal(err)
		}
		got = append(got, bytePage)
		for p, vals := range got {
			for i, v := range vals {
				if v != vals[0] || math.Mod(v, 2) != 1 || v > float64(2*rounds+1) {
					t.Fatalf("pull %d, page %d: element %d is %v, element 0 is %v: torn, or served between two stages", pull, p, i, v, vals[0])
				}
			}
		}
	}
	for i := 0; i < pages; i++ {
		if sum, err := dev.Sum(bg, i); err != nil || sum != float64(n*n*n*(2*rounds+1)) {
			t.Fatalf("page %d after %d rounds sums to %v, %v", i, rounds, sum, err)
		}
	}
}

// TestOpposingCollectivesDoNotDeadlock: two co-located devices, x on one
// machine disk and y on the other, and two clients that issue x.Axpy(1, y)
// and y.Axpy(-1, x) over every page at the same moment, round after round.
// Each chain holds its own page for writing and wants the other's for
// reading — the pair of locks that, taken blocking in either order, is a
// deadlock; a holder only ever TRIES the second, and the one that misses
// gives its page back and copies the operand out first. Beside them a reader
// on the concurrent lane, and on both disks raw reads of a page and raw
// writes beyond the devices' pages but under the stripes that guard them:
// ReadAt and WriteAt wait for the range while holding the device mutex every
// charge needs, so a chain that charged while holding a page would deadlock
// with them too. A 10 s watchdog stands for "finishes". Pages start uniform,
// so every page anyone sees is all one value, and after a round page p of
// (x, y) is one of the three things two chains that each read the other's
// page whole, before or after its update, can leave: (x+y, y-(x+y)),
// (x+(y-x), y-x) or, both having copied the old page out, (x+y, y-x).
func TestOpposingCollectivesDoNotDeadlock(t *testing.T) {
	t.Run("small pages", func(t *testing.T) { opposingCollectives(t, 16, 200) })
	t.Run("workers", func(t *testing.T) { opposingCollectives(t, bigN, 10) })
}

func opposingCollectives(t *testing.T, n, rounds int) {
	const pages = 4
	c, err := cluster.New(cluster.Config{Machines: 2, DisksPerMachine: 2, DiskSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(10*time.Second, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("opposing collectives did not finish in 10 s:\n%s", buf[:runtime.Stack(buf, true)]))
	})
	defer c.Shutdown()
	defer watchdog.Stop()
	devs := make([]*pagedev.ArrayDevice, 2)
	state := make([][pages]float64, 2) // what page p of x and of y holds, every element of it
	regions := make([]pagedev.Batch, 2)
	var idx []int
	for d := range devs {
		if devs[d], err = pagedev.NewArrayDevice(bg, c.Client(), 0, "xy"[d:d+1], pages, n, n, n, d); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			state[d][p] = float64(1 + d + 3*p)
			if err := devs[d].FillPage(bg, p, state[d][p]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d := range devs {
		regions[d].Peers = []rmi.Ref{devs[1-d].Ref()}
		for p := 0; p < pages; p++ {
			regions[d].Regions = append(regions[d].Regions, pagedev.PipeRegion{Index: p, Box: box(n, n, n), Peers: []pagedev.PipePeer{{Peer: 0, Index: p}}})
		}
	}
	for p := 0; p < pages; p++ {
		idx = append(idx, p)
	}
	uniform := func(who string, vals []float64) float64 {
		for i, v := range vals {
			if v != vals[0] {
				t.Errorf("%s: element %d is %v, element 0 is %v: torn", who, i, v, vals[0])
				break
			}
		}
		return vals[0]
	}

	stop, bystanders := make(chan struct{}), make(chan struct{}, 3)
	stopped := func() bool { // and a bystander lets the collectives run: it is not the load
		runtime.Gosched()
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	go func() { // the concurrent lane, whole pages and an interior sub-box
		defer func() { bystanders <- struct{}{} }()
		reader := c.Machine(1).Env().Client
		for pull := 0; !stopped(); pull++ {
			b := box(n, n, n)
			if pull%2 == 1 {
				b = pagedev.SubBox{Lo: [3]int{1, 2, 3}, Dim: [3]int{n - 2, n - 3, n - 4}}
			}
			got, err := readSubs(reader, devs[pull/2%2].Ref(), idx, b)
			if err != nil {
				t.Errorf("readSubBatch: %v", err)
				return
			}
			for p, vals := range got {
				uniform(fmt.Sprintf("pull %d, page %d", pull, p), vals)
			}
		}
	}()
	pageBytes := 8 * n * n * n
	for d := range devs { // raw operations on the disk under each device
		dsk := c.Machine(0).Disks()[d]
		go func() {
			defer func() { bystanders <- struct{}{} }()
			raw, vals := make([]byte, pageBytes), make([]float64, n*n*n)
			for k := 0; !stopped(); k++ {
				// 4 MiB on, the contents lock's stripes repeat: this range is no
				// page of the device and waits for the pages' own stripes.
				if err := dsk.WriteAt(raw, 4<<20+int64(k%pages)*int64(pageBytes)); err != nil {
					t.Errorf("raw write: %v", err)
					return
				}
				if err := dsk.ReadAt(raw, int64(k%pages)*int64(pageBytes)); err != nil {
					t.Errorf("raw read: %v", err)
					return
				}
				if err := pagedev.BytesToFloat64s(vals, raw); err != nil {
					t.Error(err)
					return
				}
				uniform(fmt.Sprintf("raw read %d of disk %d", k, d), vals)
			}
		}()
	}

	clients := []*rmi.Client{c.Client(), c.Machine(1).Env().Client}
	var axpy [2]kernel.Chain // x += y on x's device, y -= x on y's
	for d, alpha := range []float64{1, -1} {
		st, err := kernel.Resolve(kernel.BinaryStage(kernel.Axpy), []float64{alpha})
		if err != nil {
			t.Fatal(err)
		}
		axpy[d] = kernel.Chain{st}
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		done := make(chan error, 2)
		for d := range devs {
			go func() {
				dec, err := clients[d].Call(bg, devs[d].Ref(), "applyPipelineK", func(e *wire.Encoder) error {
					pagedev.EncodeApplyPipelineK(e, axpy[d], regions[d])
					return nil
				})
				dec.Release()
				done <- err
			}()
		}
		for range devs {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		page := pagedev.NewArrayPage(n, n, n)
		for p := 0; p < pages; p++ {
			var now [2]float64
			for d := range devs {
				if err := devs[d].ReadPage(bg, page, p); err != nil {
					t.Fatal(err)
				}
				now[d] = uniform(fmt.Sprintf("round %d, page %d of %s", round, p, "xy"[d:d+1]), page.Data)
			}
			x, y := state[0][p], state[1][p]
			if now != [2]float64{x + y, y - (x + y)} && now != [2]float64{x + (y - x), y - x} && now != [2]float64{x + y, y - x} {
				t.Fatalf("round %d, page %d: (x, y) went from (%v, %v) to (%v, %v): no order of the two collectives gives that", round, p, x, y, now[0], now[1])
			}
			state[0][p], state[1][p] = now[0], now[1]
		}
	}
	close(stop)
	for i := 0; i < cap(bystanders); i++ {
		<-bystanders
	}
}

// pageBits reads a page back as bit patterns.
func pageBits(t *testing.T, dev *pagedev.ArrayDevice, index int) []uint64 {
	t.Helper()
	n1, n2, n3 := dev.Dims()
	p := pagedev.NewArrayPage(n1, n2, n3)
	if err := dev.ReadPage(bg, p, index); err != nil {
		t.Fatalf("read page %d: %v", index, err)
	}
	bits := make([]uint64, len(p.Data))
	for i, v := range p.Data {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFailedMutatorStoresNothing: with mutation in place there is no
// private copy to throw away, so whatever can fail must fail before the
// first store. A writeSub frame that runs out of rows and a scale→axpy
// chain whose operand's device is gone each leave the target page
// bitwise as it was, and charge no write. In a batch large enough to be
// shared among workers the same holds per region: a page is either
// untouched or has had the whole chain, no region is claimed after the
// first failure, and the lowest failed region's error is the batch's.
func TestFailedMutatorStoresNothing(t *testing.T) {
	c := startCluster(t, 2, 0)
	client := c.Client()
	dev, err := pagedev.NewArrayDevice(bg, client, 0, "target", 2, 4, 4, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close(bg)
	page := pagedev.NewArrayPage(4, 4, 4)
	for i := range page.Data {
		page.Data[i] = float64(i) + 0.25
	}
	if err := dev.WritePage(bg, page, 0); err != nil {
		t.Fatal(err)
	}
	before := pageBits(t, dev, 0)
	_, writesBefore, err := dev.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		if !sameBits(pageBits(t, dev, 0), before) {
			t.Errorf("%s: the page changed", what)
		}
		if _, writes, err := dev.Stats(bg); err != nil || writes != writesBefore {
			t.Errorf("%s: device writes %d -> %d, %v", what, writesBefore, writes, err)
		}
	}

	// writeSub of a 2x2x4 box carrying three of its four rows.
	_, err = client.Call(bg, dev.Ref(), "writeSub", func(e *wire.Encoder) error {
		e.PutInt(0)
		for _, v := range []int{1, 1, 0, 2, 2, 4} {
			e.PutInt(v)
		}
		for r := 0; r < 3; r++ {
			e.PutFloat64s([]float64{-1, -1, -1, -1})
		}
		return nil
	})
	if err == nil {
		t.Fatal("a writeSub frame one row short was accepted")
	}
	unchanged("truncated writeSub")
	// A writeArray frame announcing the wrong page length.
	_, err = client.Call(bg, dev.Ref(), "writeArray", func(e *wire.Encoder) error {
		e.PutInt(0)
		e.PutFloat64s(make([]float64, 63))
		return nil
	})
	if err == nil {
		t.Fatal("a writeArray frame one element short was accepted")
	}
	unchanged("short writeArray")
	// writeArray copies from the frame into the page it has entered, so
	// everything is checked first: a prefix announcing the full page over
	// a body one value short, and a whole page (and garbage behind it) for
	// an index the device does not have.
	_, err = client.Call(bg, dev.Ref(), "writeArray", func(e *wire.Encoder) error {
		e.PutInt(0)
		e.PutFloat64sLen(64)
		e.AppendFloat64s(make([]float64, 63))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), wire.ErrTruncated.Error()) {
		t.Fatalf("a writeArray frame announcing 64 values and carrying 63: %v, want truncated", err)
	}
	unchanged("writeArray with a body one value short")
	for _, index := range []int{2, -1, 1 << 40} {
		_, err = client.Call(bg, dev.Ref(), "writeArray", func(e *wire.Encoder) error {
			e.PutInt(index)
			e.PutFloat64s(make([]float64, 64))
			for _, b := range []byte{0xFF, 0xFF, 0xFF, 0x01, 0x02} {
				e.PutByte(b)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("writeArray to page %d of a 2-page device was accepted", index)
		}
		unchanged("writeArray out of range")
	}

	// scale→axpy whose operand lived on a device that has been deleted:
	// the scale must not have landed when the pull fails.
	gone, err := pagedev.NewArrayDevice(bg, client, 1, "gone", 1, 4, 4, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Close(bg); err != nil {
		t.Fatal(err)
	}
	chain := resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage(kernel.Scale), kernel.BinaryStage(kernel.Axpy)}}, []float64{2}, []float64{1})
	_, _, err = dev.ApplyPipelineK(bg, chain, pagedev.Batch{Peers: []rmi.Ref{gone.Ref()}, Regions: []pagedev.PipeRegion{
		{Index: 0, Box: box(4, 4, 4), Peers: []pagedev.PipePeer{{Peer: 0, Index: 0}}}}})
	if err == nil {
		t.Fatal("a chain with a dead operand succeeded")
	}
	unchanged("scale→axpy with a dead operand")

	// Six large pages; region 2's operand is on the dead device, region
	// 4's is a page its live device does not have.
	const pages = 6
	big, err := pagedev.NewArrayDevice(bg, client, 0, "big", pages, bigN, bigN, bigN, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close(bg)
	operand, err := pagedev.NewArrayDevice(bg, client, 1, "operand", 1, bigN, bigN, bigN, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer operand.Close(bg)
	if err := operand.FillPage(bg, 0, 1); err != nil {
		t.Fatal(err)
	}
	regions := pagedev.Batch{Peers: []rmi.Ref{operand.Ref(), gone.Ref()}}
	for p := 0; p < pages; p++ {
		var peer pagedev.PipePeer
		switch p {
		case 2:
			peer.Peer = 1
		case 4:
			peer.Index = 9
		}
		regions.Regions = append(regions.Regions, pagedev.PipeRegion{Index: p, Box: box(bigN, bigN, bigN), Peers: []pagedev.PipePeer{peer}})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for p := 0; p < pages; p++ {
			if err := big.FillPage(bg, p, float64(p)+0.5); err != nil {
				t.Fatal(err)
			}
		}
		_, w0, err := big.Stats(bg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err = big.ApplyPipelineK(bg, chain, regions); !errors.Is(err, rmi.ErrNoSuchObject) {
			t.Fatalf("%d processors: the batch failed with %v, want region 2's %v", procs, err, rmi.ErrNoSuchObject)
		}
		applied := int64(0)
		for p := 0; p < pages; p++ {
			seed := float64(p) + 0.5
			bits := pageBits(t, big, p)
			for i, b := range bits {
				if b != bits[0] || (b != math.Float64bits(seed) && b != math.Float64bits(2*seed+1)) {
					t.Fatalf("%d processors: page %d element %d is %v, element 0 %v: neither untouched nor the whole chain",
						procs, p, i, math.Float64frombits(b), math.Float64frombits(bits[0]))
				}
			}
			done := bits[0] != math.Float64bits(seed)
			if done {
				applied++
			}
			// Regions 2 and 4 fail before their page is entered; one worker
			// has applied exactly the regions in front of the first failure.
			if done && (p == 2 || p == 4) || procs == 1 && done != (p < 2) {
				t.Errorf("%d processors: page %d applied: %v", procs, p, done)
			}
		}
		if _, w1, err := big.Stats(bg); err != nil || w1-w0 != applied {
			t.Errorf("%d processors: %d pages applied, device writes +%d, %v", procs, applied, w1-w0, err)
		}
	}
}

// backingRow is one kind of store under an ArrayPageDevice, with the
// disk whose operations its page traffic lands on.
type backingRow struct {
	name string
	dev  *pagedev.ArrayDevice
	dsk  *disk.Disk
}

// openBackings creates the same 4-page n×n×n device over a resident
// memory disk, a file-backed disk, and a PageDevice process (itself on a
// memory disk) reached through remoteBacking.
func openBackings(t *testing.T, model disk.Model, n int) []backingRow {
	t.Helper()
	boot := func(dataDir string) *cluster.Cluster {
		c, err := cluster.New(cluster.Config{Machines: 1, DisksPerMachine: 1, DiskSize: 4 << 20, DiskModel: model, DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Shutdown() })
		return c
	}
	const pages = 4
	var rows []backingRow
	for _, mk := range []struct{ name, dir string }{{"memory", ""}, {"file", t.TempDir()}} {
		c := boot(mk.dir)
		dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, mk.name, pages, n, n, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, backingRow{mk.name, dev, c.Machine(0).Disks()[0]})
	}
	c := boot("")
	under, err := pagedev.NewDevice(bg, c.Client(), 0, "under", pages, 8*n*n*n, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pagedev.NewArrayDeviceFromProcess(bg, c.Client(), 0, under.Ref(), pages, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	return append(rows, backingRow{"process", dev, c.Machine(0).Disks()[0]})
}

// outcome is everything observable about one run of the chain set.
type outcome struct {
	pages          [][]uint64
	partials       [][]uint64 // per chain: N, then the accumulator's bits
	reads, writes  int64      // device stats delta
	dreads, dwrite int64      // disk.Ops delta
	// The operand's device and disk, where they are not the swept one's.
	oreads, odreads int64
}

// runChainSet drives one chain of every shape — map, reduce, binary,
// binary-reduce, mixed; whole pages and a sub-box; an overwriting fill —
// through applyPipelineK, operands pulled from the device's own pages. n
// is the page edge openBackings was given: with bigN every batch exceeds
// the engine's worker threshold ("mixed" reads pages its other region
// writes, so it keeps region order; the rest are shared among workers).
func runChainSet(t *testing.T, row backingRow, n int) outcome {
	t.Helper()
	dev := row.dev
	const pages = 4
	page := pagedev.NewArrayPage(n, n, n)
	for p := 0; p < pages; p++ {
		for i := range page.Data {
			page.Data[i] = float64((p+1)*(i%13)) / 8
		}
		if err := dev.WritePage(bg, page, p); err != nil {
			t.Fatalf("%s: seed page %d: %v", row.name, p, err)
		}
	}
	r0, w0, err := dev.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	dr0, dw0 := row.dsk.Ops()

	whole, inner := box(n, n, n), pagedev.SubBox{Lo: [3]int{1, 0, 1}, Dim: [3]int{n / 2, n, n / 2}}
	self := func(i int) []pagedev.PipePeer { return []pagedev.PipePeer{{Peer: 0, Index: i}} }
	stages := func(s ...kernel.Stage) kernel.Pipeline { return kernel.Pipeline{Stages: s} }
	var out outcome
	for _, run := range []struct {
		what    string
		p       kernel.Pipeline
		params  [][]float64
		regions []pagedev.PipeRegion
	}{
		{"map", stages(kernel.MapStage(kernel.Scale)), [][]float64{{1.5}},
			[]pagedev.PipeRegion{{Index: 0, Box: whole}, {Index: 1, Box: inner}}},
		{"reduce", stages(kernel.ReduceStage(kernel.Sum)), [][]float64{nil},
			[]pagedev.PipeRegion{{Index: 0, Box: whole, Fold: true}, {Index: 2, Box: inner, Fold: true}, {Index: 3, Box: whole}}},
		{"binary", stages(kernel.BinaryStage(kernel.Axpy)), [][]float64{{-0.5}},
			[]pagedev.PipeRegion{{Index: 1, Box: whole, Peers: self(2)}, {Index: 3, Box: inner, Peers: self(3)}}},
		{"binary-reduce", stages(kernel.BinaryReduceStage(kernel.Dot)), [][]float64{nil},
			[]pagedev.PipeRegion{{Index: 0, Box: whole, Fold: true, Peers: self(0)}, {Index: 1, Box: inner, Fold: true, Peers: self(3)}}},
		{"mixed", stages(kernel.MapStage(kernel.Scale), kernel.BinaryStage(kernel.Axpy), kernel.ReduceStage(kernel.MinMax), kernel.BinaryReduceStage(kernel.Dot)),
			[][]float64{{0.5}, {2}, nil, nil},
			[]pagedev.PipeRegion{{Index: 2, Box: whole, Fold: true, Peers: append(self(0), self(2)...)}, {Index: 0, Box: inner, Fold: true, Peers: append(self(1), self(3)...)}}},
		{"fill", stages(kernel.MapStage(kernel.Fill), kernel.ReduceStage(kernel.Sum)), [][]float64{{0.125}, nil},
			[]pagedev.PipeRegion{{Index: 3, Box: whole, Fold: true}, {Index: 1, Box: inner, Fold: true}}},
	} {
		_, parts, err := dev.ApplyPipelineK(bg, resolve(t, run.p, run.params...), pagedev.Batch{Peers: []rmi.Ref{dev.Ref()}, Regions: run.regions})
		if err != nil {
			t.Fatalf("%s: %s chain: %v", row.name, run.what, err)
		}
		var bits []uint64
		for _, p := range parts {
			bits = append(bits, uint64(p.N))
			for _, v := range p.Acc {
				bits = append(bits, math.Float64bits(v))
			}
		}
		out.partials = append(out.partials, bits)
	}
	r1, w1, err := dev.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	dr1, dw1 := row.dsk.Ops()
	out.reads, out.writes, out.dreads, out.dwrite = r1-r0, w1-w0, dr1-dr0, dw1-dw0
	for p := 0; p < pages; p++ {
		out.pages = append(out.pages, pageBits(t, dev, p))
	}
	return out
}

// TestBackingsAgree: the chain set gives bitwise-equal pages, equal
// reduce partials and equal device and disk operation counts whether the
// device computes on its resident page or copies through a file or
// another process — and the counts are what the load/store engine
// charged: a read per opened page that is not wholly overwritten, a
// write per page of a chain that mutates, a read per pulled operand.
func TestBackingsAgree(t *testing.T) {
	rows := openBackings(t, disk.Model{}, 4)
	want := runChainSet(t, rows[0], 4)
	// Reads+writes: map 2+2, reduce 3+0, binary (2 pages + 2 operands)+2,
	// binary-reduce (2+2)+0, mixed (2+4)+2, fill 1+2 (the whole-page
	// fill is not loaded).
	if want.reads != 20 || want.writes != 8 {
		t.Errorf("memory: %d reads, %d writes for the chain set, want 20 and 8", want.reads, want.writes)
	}
	for _, row := range rows[1:] {
		agree(t, row.name, runChainSet(t, row, 4), want)
	}
	// The co-located row: however an operand's page is reached — in place,
	// copied out, pulled — and whatever store it lies in.
	var first *outcome
	for _, dir := range []string{"", t.TempDir()} {
		for _, where := range []string{"in place", "staged", "remote"} {
			got := runPeerSet(t, dir, where)
			if first == nil {
				if first = &got; got.reads != 6 || got.writes != 4 || got.oreads != 6 {
					t.Errorf("in place: %d reads, %d writes, %d operand reads for the peer set, want 6, 4 and 6", got.reads, got.writes, got.oreads)
				}
			}
			who := where + ", memory"
			if dir != "" {
				who = where + ", file"
			}
			agree(t, who, got, *first)
		}
	}
}

// runPeerSet sweeps a 4-page device x on machine 0 through two-operand
// chains — whole pages and a sub-box; axpy, dot, and a four-stage chain
// whose first operand is y and whose second is z, always on machine 1 —
// with y's pages reached one of three ways: "in place", y on machine 0 and
// cut like x; "staged", the same bytes of the same disk through a device
// whose pages are twice as deep (page p of it is y's 2p and 2p+1), which x
// cannot walk in step; "remote", y on machine 1. dir chooses the disks:
// memory (resident stores), or files under it (every pin a copy).
func runPeerSet(t *testing.T, dir, where string) outcome {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: 2, DisksPerMachine: 2, DiskSize: 1 << 20, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	const pages, n = 4, 4
	open := func(machine int, name string, pages, n1, diskIndex int) *pagedev.ArrayDevice {
		dev, err := pagedev.NewArrayDevice(bg, c.Client(), machine, name, pages, n1, n, n, diskIndex)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	x, z := open(0, "x", pages, n, 0), open(1, "z", pages, n, 1)
	ymachine := 0
	if where == "remote" {
		ymachine = 1
	}
	y := open(ymachine, "y", 2*pages, n, 1^ymachine) // machine 0's disk 1, machine 1's disk 0
	page := pagedev.NewArrayPage(n, n, n)
	for p := 0; p < 2*pages; p++ {
		for dev, scale := range map[*pagedev.ArrayDevice]float64{x: 1, y: 3, z: -5} {
			if dev != y && p >= pages {
				continue
			}
			for i := range page.Data {
				page.Data[i] = scale * float64((p+1)*(i%11)) / 16
			}
			if err := dev.WritePage(bg, page, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	operand, index := y, func(p int) int { return 2 * p }
	if where == "staged" {
		operand, index = open(0, "deep", pages, 2*n, 1), func(p int) int { return p }
	}
	xdsk, odsk := c.Machine(0).Disks()[0], c.Machine(ymachine).Disks()[1^ymachine]
	r0, w0, _ := x.Stats(bg)
	or0, _, _ := operand.Stats(bg)
	dr0, dw0 := xdsk.Ops()
	odr0, _ := odsk.Ops()

	whole, inner := box(n, n, n), pagedev.SubBox{Lo: [3]int{1, 0, 1}, Dim: [3]int{n / 2, n, n / 2}}
	region := func(p int, b pagedev.SubBox, more ...pagedev.PipePeer) pagedev.PipeRegion {
		peers := append([]pagedev.PipePeer{{Peer: 0, Index: index(p)}}, more...)
		return pagedev.PipeRegion{Index: p, Box: b, Fold: true, Peers: peers}
	}
	stages := func(s ...kernel.Stage) kernel.Pipeline { return kernel.Pipeline{Stages: s} }
	var out outcome
	for _, run := range []struct {
		p       kernel.Pipeline
		params  [][]float64
		regions []pagedev.PipeRegion
	}{
		{stages(kernel.BinaryStage(kernel.Axpy)), [][]float64{{-0.5}}, []pagedev.PipeRegion{region(0, whole), region(1, inner)}},
		{stages(kernel.BinaryReduceStage(kernel.Dot)), [][]float64{nil}, []pagedev.PipeRegion{region(2, whole), region(3, inner)}},
		{stages(kernel.MapStage(kernel.Scale), kernel.BinaryStage(kernel.Axpy), kernel.ReduceStage(kernel.MinMax), kernel.BinaryReduceStage(kernel.Dot)),
			[][]float64{{0.5}, {2}, nil, nil},
			[]pagedev.PipeRegion{region(0, whole, pagedev.PipePeer{Peer: 1, Index: 3}), region(2, inner, pagedev.PipePeer{Peer: 1, Index: 1})}},
	} {
		_, parts, err := x.ApplyPipelineK(bg, resolve(t, run.p, run.params...), pagedev.Batch{Peers: []rmi.Ref{operand.Ref(), z.Ref()}, Regions: run.regions})
		if err != nil {
			t.Fatalf("%s: %v: %v", where, run.p, err)
		}
		var bits []uint64
		for _, p := range parts {
			bits = append(bits, uint64(p.N))
			for _, v := range p.Acc {
				bits = append(bits, math.Float64bits(v))
			}
		}
		out.partials = append(out.partials, bits)
	}
	r1, w1, _ := x.Stats(bg)
	or1, _, _ := operand.Stats(bg)
	dr1, dw1 := xdsk.Ops()
	odr1, _ := odsk.Ops()
	out.reads, out.writes, out.dreads, out.dwrite = r1-r0, w1-w0, dr1-dr0, dw1-dw0
	out.oreads, out.odreads = or1-or0, odr1-odr0
	for p := 0; p < pages; p++ {
		out.pages = append(out.pages, pageBits(t, x, p))
	}
	return out
}

// agree fails unless two runs of the chain set left the same pages,
// returned the same partials and counted the same operations.
func agree(t *testing.T, who string, got, want outcome) {
	t.Helper()
	for p := range want.pages {
		if !sameBits(got.pages[p], want.pages[p]) {
			t.Errorf("%s: page %d differs from memory's", who, p)
		}
	}
	for i := range want.partials {
		if !sameBits(got.partials[i], want.partials[i]) {
			t.Errorf("%s: chain %d partials %x, memory's %x", who, i, got.partials[i], want.partials[i])
		}
	}
	if got.reads != want.reads || got.writes != want.writes || got.dreads != want.dreads || got.dwrite != want.dwrite {
		t.Errorf("%s: device +%d/+%d disk +%d/+%d (reads/writes), memory's +%d/+%d and +%d/+%d", who,
			got.reads, got.writes, got.dreads, got.dwrite, want.reads, want.writes, want.dreads, want.dwrite)
	}
	if got.oreads != want.oreads || got.odreads != want.odreads {
		t.Errorf("%s: operand device +%d reads, its disk +%d, memory's +%d and +%d", who, got.oreads, got.odreads, want.oreads, want.odreads)
	}
}

// TestWorkerCountDoesNotShow: the chain set on pages so large that every
// batch is above the engine's worker threshold, and then a four-stage
// chain over all four pages in one batch, on one, two and eight
// processors. How many workers shared a batch, and which claimed what,
// shows nowhere: pages, partials (each region folds into its own
// accumulator, merged in region order) and device and disk operation
// counts are equal bitwise across the three settings and the three
// backings — and the one-processor run is the plain sequential loop.
func TestWorkerCountDoesNotShow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	all := kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage(kernel.Scale), kernel.BinaryStage(kernel.Axpy),
		kernel.ReduceStage(kernel.SumSq), kernel.BinaryReduceStage(kernel.Dot)}}
	var want *outcome
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, row := range openBackings(t, disk.Model{}, bigN) {
			got := runChainSet(t, row, bigN)
			regions := pagedev.Batch{Peers: []rmi.Ref{row.dev.Ref()}}
			for p := 0; p < 4; p++ {
				self := pagedev.PipePeer{Peer: 0, Index: p}
				regions.Regions = append(regions.Regions, pagedev.PipeRegion{Index: p, Box: box(bigN, bigN, bigN), Fold: true, Peers: []pagedev.PipePeer{self, self}})
			}
			touched, parts, err := row.dev.ApplyPipelineK(bg, resolve(t, all, []float64{1.0 / 3}, []float64{0.7}, nil, nil), regions)
			if err != nil || touched != 4*bigN*bigN*bigN {
				t.Fatalf("%s, %d processors: chain over every page touched %d, %v", row.name, procs, touched, err)
			}
			for _, part := range parts {
				got.partials = append(got.partials, []uint64{uint64(part.N), math.Float64bits(part.Acc[0])})
			}
			for p := range regions.Regions {
				got.pages = append(got.pages, pageBits(t, row.dev, p))
			}
			if want == nil {
				want = &got
			}
			agree(t, fmt.Sprintf("%s, %d processors", row.name, procs), got, *want)
		}
	}
}

func init() {
	kernel.RegisterMap("test.halfThenPanic", kernel.Map{Fn: func(row, _ []float64) {
		for i := range row[:len(row)/2] {
			row[i] = -1
		}
		panic("kernel bug")
	}})
}

// TestPanickingKernelGivesThePageUp: all-or-nothing is about errors; a
// kernel that panics mid-page is a bug the engine only contains. The
// call fails, the page is given up — the device goes on serving it — and
// a store that works on copies has stored nothing. (A resident page keeps
// what the kernel wrote.) The same in a batch large enough to be shared
// among helper goroutines, which have no rmi frame above them to recover
// a panic: it must reach the caller as the same failed call, not kill the
// process, and every helper must be gone when the call returns.
func TestPanickingKernelGivesThePageUp(t *testing.T) {
	for _, row := range openBackings(t, disk.Model{}, 4) {
		page := pagedev.NewArrayPage(4, 4, 4)
		fill(page, 3)
		if err := row.dev.WritePage(bg, page, 0); err != nil {
			t.Fatal(err)
		}
		before := pageBits(t, row.dev, 0)
		_, _, err := row.dev.ApplyPipelineK(bg, resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage("test.halfThenPanic")}}, nil),
			pagedev.Batch{Regions: []pagedev.PipeRegion{{Index: 0, Box: box(4, 4, 4)}}})
		if err == nil {
			t.Fatalf("%s: a panicking kernel reported success", row.name)
		}
		after := pageBits(t, row.dev, 0) // would hang if the page were still held
		if row.name != "memory" && !sameBits(after, before) {
			t.Errorf("%s: a chain that panicked stored its copy", row.name)
		}
		if err := row.dev.FillPage(bg, 0, 1); err != nil {
			t.Errorf("%s: fill after the panic: %v", row.name, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, row := range openBackings(t, disk.Model{}, bigN) {
		var regions []pagedev.PipeRegion
		var before [][]uint64
		for p := 0; p < 4; p++ {
			if err := row.dev.FillPage(bg, p, 3); err != nil {
				t.Fatal(err)
			}
			before = append(before, pageBits(t, row.dev, p))
			regions = append(regions, pagedev.PipeRegion{Index: p, Box: box(bigN, bigN, bigN)})
		}
		goroutines := runtime.NumGoroutine()
		_, _, err := row.dev.ApplyPipelineK(bg, resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage("test.halfThenPanic")}}, nil), pagedev.Batch{Regions: regions})
		if err == nil || !strings.Contains(err.Error(), "kernel bug") {
			t.Fatalf("%s: a kernel panicking on helper goroutines: %v", row.name, err)
		}
		for p := range regions {
			after := pageBits(t, row.dev, p) // would hang if a worker still held the page
			if row.name != "memory" && !sameBits(after, before[p]) {
				t.Errorf("%s: page %d: a chain that panicked stored its copy", row.name, p)
			}
			if err := row.dev.FillPage(bg, p, 1); err != nil {
				t.Errorf("%s: fill of page %d after the panic: %v", row.name, p, err)
			}
		}
		// The helpers were joined before the call failed; anything else the
		// call started (a connection's reader) may take a moment to park.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines before the panicking batch, %d after", row.name, goroutines, runtime.NumGoroutine())
			}
		}
	}
}

// TestResidentAccessIsCharged: computing in place is not free on the
// model. On a memory disk with a seek time, the chain set holds the disk
// for at least one seek per counted operation, as the copying engine did.
func TestResidentAccessIsCharged(t *testing.T) {
	const seek = 200 * time.Microsecond
	row := openBackings(t, disk.Model{Seek: seek}, 4)[0]
	t0 := time.Now()
	got := runChainSet(t, row, 4)
	// The seeding writes and the read-back are charged too; bound from
	// below by the chain set's own operations alone.
	ops := got.dreads + got.dwrite
	if ops != 28 {
		t.Errorf("chain set made %d disk operations, want 28", ops)
	}
	if took := time.Since(t0); took < time.Duration(ops)*seek {
		t.Errorf("%d modeled operations of %v took %v", ops, seek, took)
	}
}
