package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/elastic"
	"oopp/internal/metrics"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/rmi"
)

// devicePages counts page copies per device in the array's current map,
// failing on an address outside its devices × PagesPerDevice.
func devicePages(t *testing.T, arr *core.Array) map[int]int {
	t.Helper()
	pm := arr.Map()
	P1, P2, P3 := arr.GridDims()
	pages := make(map[int]int)
	for p1 := 0; p1 < P1; p1++ {
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				for _, addr := range pm.LocateAll(p1, p2, p3) {
					if addr.Device < 0 || addr.Device >= pm.Devices() || addr.Index < 0 || addr.Index >= pm.PagesPerDevice() {
						t.Fatalf("%s: page (%d,%d,%d) at %+v outside %d devices of %d pages",
							pm.Name(), p1, p2, p3, addr, pm.Devices(), pm.PagesPerDevice())
					}
					pages[addr.Device]++
				}
			}
		}
	}
	return pages
}

// fillPattern writes a distinct value per element, returning the data.
func fillPattern(t *testing.T, arr *core.Array, seed float64) []float64 {
	t.Helper()
	N1, N2, N3 := arr.Dims()
	data := make([]float64, N1*N2*N3)
	for i := range data {
		data[i] = seed + float64(i)
	}
	if err := arr.Write(bg, data, arr.Bounds()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return data
}

func checkPattern(t *testing.T, arr *core.Array, want []float64, when string) {
	t.Helper()
	got := make([]float64, len(want))
	if err := arr.Read(bg, got, arr.Bounds()); err != nil {
		t.Fatalf("Read %s: %v", when, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v", when, i, got[i], want[i])
		}
	}
}

// TestPagesHeldIsNetPagesMigratedIn pins PagesHeld's contract: per
// machine, the pages migrated in net of those migrated out, not the pages
// the machine holds. Creating and writing an array moves it on no
// machine; migrating m pages from device 0 to device 2 (each device on
// the machine of its index) reads -m on machine 0 and +m on machine 2.
func TestPagesHeldIsNetPagesMigratedIn(t *testing.T) {
	const m = 2
	cl, arr, stop := buildReplicated(t, "striped", 3, 1, 4, 4, 4, 2, 2, 2, 4)
	defer stop()
	held := func(i int) int64 { return cl.Machine(i).Env().Counters().PagesHeld.Load() }
	fillPattern(t, arr, 7)
	for i := range 3 {
		if h := held(i); h != 0 {
			t.Fatalf("machine %d: PagesHeld %d after NewArray and Write, want 0", i, h)
		}
	}
	if _, err := arr.MigratePages(bg, []elastic.Move{{From: 0, To: 2, Pages: m}}); err != nil {
		t.Fatalf("MigratePages: %v", err)
	}
	for i, want := range []int64{-m, 0, m} {
		if h := held(i); h != want {
			t.Errorf("machine %d: PagesHeld %d after migrating %d pages 0→2, want %d", i, h, m, want)
		}
	}
}

// TestMigratePagesPreservesContents pins the fence→copy→flip→retire
// cycle: an explicit move plan relocates pages between devices with
// contents bitwise intact, the map re-mints with the "+resharded"
// marker, the migration gauges settle, and the array stays fully
// writable afterwards (including pages at their new homes).
func TestMigratePagesPreservesContents(t *testing.T) {
	_, arr, stop := buildReplicated(t, "striped", 3, 1, 4, 4, 4, 2, 2, 2, 4)
	defer stop()
	want := fillPattern(t, arr, 1000)

	before := devicePages(t, arr)
	mBefore := metrics.Default.Snapshot()
	rep, err := arr.MigratePages(bg, []elastic.Move{{From: 0, To: 2, Pages: 2}})
	if err != nil {
		t.Fatalf("MigratePages: %v", err)
	}
	if rep.Moved != 2 || rep.Skipped != 0 {
		t.Fatalf("moved %d skipped %d, want 2/0", rep.Moved, rep.Skipped)
	}
	if rep.Bytes != 2*2*2*2*8 {
		t.Fatalf("bytes = %d, want %d", rep.Bytes, 2*2*2*2*8)
	}
	d := metrics.Default.Snapshot().Sub(mBefore)
	if d.PagesMigrated != 2 || d.BytesMigrated != rep.Bytes || d.PagesHeld != 0 {
		t.Fatalf("gauges migrated=%d bytes=%d held=%d, want 2/%d/0",
			d.PagesMigrated, d.BytesMigrated, d.PagesHeld, rep.Bytes)
	}

	after := devicePages(t, arr)
	if after[0] != before[0]-2 || after[2] != before[2]+2 {
		t.Fatalf("occupancy before %v after %v, want 2 pages moved 0→2", before, after)
	}
	if name := arr.Map().Name(); name != "striped+resharded" {
		t.Fatalf("resharded map name = %q", name)
	}
	checkPattern(t, arr, want, "after migration")

	// The array is fully live post-flip: overwrite everything (the
	// moved pages now land at their new addresses, the retired source
	// slots must not swallow anything) and read it back.
	want = fillPattern(t, arr, 5000)
	checkPattern(t, arr, want, "after post-migration rewrite")

	// A second migration may reuse the retired source slots.
	if _, err := arr.MigratePages(bg, []elastic.Move{{From: 2, To: 0, Pages: 2}}); err != nil {
		t.Fatalf("reverse MigratePages: %v", err)
	}
	checkPattern(t, arr, want, "after reverse migration")
	if name := arr.Map().Name(); name != "striped+resharded" {
		t.Fatalf("reshard marker must not stack: %q", name)
	}
}

// TestDrainThenRebalance pins the two planner-driven entry points
// against each other: DrainMachine empties a machine's devices
// completely (data intact), then Rebalance flows pages back onto the
// drained device with the minimal-move plan.
func TestDrainThenRebalance(t *testing.T) {
	_, arr, stop := buildReplicated(t, "roundrobin", 3, 1, 4, 4, 4, 2, 2, 2, 8)
	defer stop()
	want := fillPattern(t, arr, 300)

	rep, err := arr.DrainMachine(bg, 2)
	if err != nil {
		t.Fatalf("DrainMachine: %v", err)
	}
	pages := devicePages(t, arr)
	if pages[2] != 0 {
		t.Fatalf("drained device still holds %d pages (%v)", pages[2], pages)
	}
	if rep.Moved == 0 {
		t.Fatal("drain reported zero moved pages")
	}
	checkPattern(t, arr, want, "after drain")

	// Rebalance pulls the drained device back into service: every
	// device lands within the occupancy band and only the minimal page
	// count moves (8 pages over 3 devices: the empty device needs its
	// ⌊mean⌋ = 2).
	rrep, err := arr.Rebalance(bg, core.RebalanceConfig{})
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if rrep.Moved != elastic.MovedPages(rrep.Plan) || rrep.Skipped != 0 {
		t.Fatalf("rebalance executed %d of planned %d (skipped %d)",
			rrep.Moved, elastic.MovedPages(rrep.Plan), rrep.Skipped)
	}
	if rrep.Moved != 2 {
		t.Fatalf("rebalance moved %d pages, want minimal 2", rrep.Moved)
	}
	pages = devicePages(t, arr)
	for d := 0; d < 3; d++ {
		if pages[d] < 2 || pages[d] > 3 {
			t.Fatalf("device %d at %d pages after rebalance, want within [2,3] (%v)", d, pages[d], pages)
		}
	}
	checkPattern(t, arr, want, "after rebalance")

	// A balanced array plans nothing.
	again, err := arr.Rebalance(bg, core.RebalanceConfig{DryRun: true})
	if err != nil {
		t.Fatalf("DryRun Rebalance: %v", err)
	}
	if len(again.Plan) != 0 {
		t.Fatalf("balanced array produced plan %v", again.Plan)
	}
}

// TestDrainRefusedWithoutCapacity pins the complete-or-fail contract:
// with zero spare slots the drain must refuse up front, not half-move.
func TestDrainRefusedWithoutCapacity(t *testing.T) {
	_, arr, stop := buildReplicated(t, "striped", 2, 1, 4, 4, 2, 2, 2, 2, 0)
	defer stop()
	want := fillPattern(t, arr, 70)
	if _, err := arr.DrainMachine(bg, 0); err == nil {
		t.Fatal("drain without spare capacity must fail")
	}
	checkPattern(t, arr, want, "after refused drain")
}

// TestDrainMachineOrderIsDeterministic pins the table a drain of a
// two-device machine leaves: its devices drain in ascending index order,
// so the plan each one gets — and every slot it is given — repeats run
// to run (a drain in map-iteration order produced either of two tables).
func TestDrainMachineOrderIsDeterministic(t *testing.T) {
	cl, err := cluster.NewLocal(2, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	// 8 pages round-robin over 4 devices, two per machine, 4 spare slots each.
	pm, err := core.NewPageMap("roundrobin", 2, 2, 2, 4)
	if err != nil {
		t.Fatalf("pagemap: %v", err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{0, 0, 1, 1}, "darr",
		pm.PagesPerDevice()+4, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("storage: %v", err)
	}
	defer storage.Close(bg)
	arr, err := core.NewArray(bg, storage, pm, 4, 4, 4, 2, 2, 2)
	if err != nil {
		t.Fatalf("array: %v", err)
	}
	want := fillPattern(t, arr, 900)
	if rep, err := arr.DrainMachine(bg, 0); err != nil || rep.Moved != 4 {
		t.Fatalf("DrainMachine: %+v, %v", rep, err)
	}
	checkPattern(t, arr, want, "after drain")
	// Linear pages 0..7: pages 2,3,6,7 never moved; device 0's pages (0, 4)
	// were placed before device 1's (1, 5).
	table := []core.PageAddress{
		{Device: 2, Index: 2}, {Device: 2, Index: 3}, {Device: 2, Index: 0}, {Device: 3, Index: 0},
		{Device: 3, Index: 2}, {Device: 3, Index: 3}, {Device: 2, Index: 1}, {Device: 3, Index: 1},
	}
	for l, w := range table {
		if got := arr.Map().Locate(l/4, l/2%2, l%2); got != w {
			t.Errorf("page %d at %+v, want %+v", l, got, w)
		}
	}
}

// TestJoinDeviceAndRebalance is the elastic-growth contract: a device
// joins a running storage (AddDevice on a machine that had none),
// Rebalance flows its fair share of pages onto it with data intact,
// and after a drain ReviveDevice gives the slot a fresh process that
// Rebalance repopulates — the full leave/rejoin cycle.
func TestJoinDeviceAndRebalance(t *testing.T) {
	cl, err := cluster.NewLocal(3, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	// 8 pages over 2 devices; machine 2 starts with no device at all.
	pm, err := core.NewPageMap("roundrobin", 2, 2, 2, 2)
	if err != nil {
		t.Fatalf("pagemap: %v", err)
	}
	const spare = 8
	storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{0, 1}, "earr",
		pm.PagesPerDevice()+spare, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("storage: %v", err)
	}
	defer storage.Close(bg)
	arr, err := core.NewArray(bg, storage, pm, 4, 4, 4, 2, 2, 2)
	if err != nil {
		t.Fatalf("array: %v", err)
	}
	want := fillPattern(t, arr, 9000)

	idx, err := storage.AddDevice(bg, 2, spare, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	if idx != 2 || storage.Len() != 3 || storage.MachineOf(2) != 2 {
		t.Fatalf("join: idx=%d len=%d machine=%d", idx, storage.Len(), storage.MachineOf(2))
	}

	// Rebalance flows the newcomer its floor share: 8 pages over 3
	// devices puts at least ⌊8/3⌋ = 2 pages on device 2.
	rep, err := arr.Rebalance(bg, core.RebalanceConfig{})
	if err != nil {
		t.Fatalf("Rebalance onto newcomer: %v", err)
	}
	if rep.Skipped != 0 || rep.Moved == 0 {
		t.Fatalf("rebalance moved %d skipped %d", rep.Moved, rep.Skipped)
	}
	if d := arr.Map().Devices(); d != storage.Len() {
		t.Fatalf("map after join rebalance spans %d devices, storage has %d", d, storage.Len())
	}
	pages := devicePages(t, arr)
	if pages[2] < 2 {
		t.Fatalf("newcomer holds %d pages after rebalance (%v)", pages[2], pages)
	}
	checkPattern(t, arr, want, "after join rebalance")

	// The descriptor stores the grown map: a checkpoint taken now
	// recovers, newcomer's pages included.
	store, err := persist.NewStore(bg, cl.Client(), 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := core.CheckpointArray(bg, arr, store, "ck/joined"); err != nil {
		t.Fatalf("checkpoint after join: %v", err)
	}
	rec, err := core.RecoverArray(bg, cl.Client(), store, "ck/joined")
	if err != nil {
		t.Fatalf("recover after join: %v", err)
	}
	checkPattern(t, rec, want, "recovered after join rebalance")
	rec.Storage().Close(bg)

	// Leave: drain the newcomer empty, then rejoin its slot with a
	// fresh process (the restart story) and flow pages back.
	if _, err := arr.DrainMachine(bg, 2); err != nil {
		t.Fatalf("DrainMachine: %v", err)
	}
	if pages = devicePages(t, arr); pages[2] != 0 {
		t.Fatalf("drained newcomer still holds %d pages", pages[2])
	}
	if err := storage.ReviveDevice(bg, 2, 2, spare, pagedev.DiskPrivate); err != nil {
		t.Fatalf("ReviveDevice: %v", err)
	}
	if _, err := arr.Rebalance(bg, core.RebalanceConfig{}); err != nil {
		t.Fatalf("Rebalance after revive: %v", err)
	}
	if pages = devicePages(t, arr); pages[2] < 2 {
		t.Fatalf("revived device holds %d pages (%v)", pages[2], pages)
	}
	checkPattern(t, arr, want, "after revive rebalance")
}

// TestMigrateUnderConcurrentLoad is the live-reshard contract at unit
// scale: while client goroutines continuously write, fill (an
// owner-computes kernel), and sum the replicated array, pages migrate
// back and forth between devices. Not one call may fail — fenced work
// parks and replays — and the running sums prove no window ever
// exposed lost or double-applied updates.
func TestMigrateUnderConcurrentLoad(t *testing.T) {
	_, arr, stop := buildReplicated(t, "roundrobin", 3, 2, 4, 4, 4, 2, 2, 2, 8)
	defer stop()

	N := 4
	half := core.NewDomain(0, N/2, 0, N, 0, N)
	rest := core.NewDomain(N/2, N, 0, N, 0, N)
	// Invariant state: the low slab holds 3s, the high slab 5s, and the
	// workers rewrite those same constants — so any observed sum other
	// than 256 means a migration tore, lost, or double-applied data.
	const wantSum = 32*3 + 32*5
	slab := make([]float64, half.Size())
	for i := range slab {
		slab[i] = 3
	}
	if err := arr.Write(bg, slab, half); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := arr.Fill(bg, rest, 5); err != nil {
		t.Fatalf("seed fill: %v", err)
	}

	var failed atomic.Value
	done := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(op func() error, name string) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := op(); err != nil {
				failed.Store(fmt.Errorf("%s: %w", name, err))
				return
			}
		}
	}
	wg.Add(3)
	go worker(func() error { return arr.Write(bg, slab, half) }, "write")
	go worker(func() error { return arr.Fill(bg, rest, 5) }, "fill")
	go worker(func() error {
		s, err := arr.Sum(bg, arr.Bounds())
		if err == nil && s != wantSum {
			return fmt.Errorf("sum = %v, want %v", s, wantSum)
		}
		return err
	}, "sum")

	for round := 0; round < 6; round++ {
		from, to := round%3, (round+1)%3
		if _, err := arr.MigratePages(bg, []elastic.Move{{From: from, To: to, Pages: 2}}); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("migration round %d: %v", round, err)
		}
	}
	close(done)
	wg.Wait()
	if err := failed.Load(); err != nil {
		t.Fatalf("client op failed during live migration: %v", err)
	}

	got := make([]float64, N*N*N)
	if err := arr.Read(bg, got, arr.Bounds()); err != nil {
		t.Fatalf("final read: %v", err)
	}
	for i, v := range got {
		want := 3.0
		if i >= len(got)/2 {
			want = 5.0
		}
		if v != want {
			t.Fatalf("element %d = %v, want %v after live migrations", i, v, want)
		}
	}
}

// TestFailoverAndMigrateCopyOneBatchPerDevice: a device that takes pages
// from two source devices is sent ONE applyPipelineK — a kernel.Copy batch
// naming both sources in its peer list — and no pullSubBatch, whether the
// copies are Failover's re-seeds or a MigratePages; the pages arrive
// bitwise intact. Each device has a machine of its own, so a machine's
// served calls are its device's.
func TestFailoverAndMigrateCopyOneBatchPerDevice(t *testing.T) {
	copyCalls := func(cl *cluster.Cluster, machines ...int) (batches, pulls int64) {
		for _, m := range machines {
			batches += servedCalls(t, cl, m, "applyPipelineK")
			pulls += servedCalls(t, cl, m, "pullSubBatch")
		}
		return batches, pulls
	}

	t.Run("migrate", func(t *testing.T) {
		cl, arr, stop := buildReplicated(t, "roundrobin", 3, 1, 4, 4, 4, 2, 2, 2, 2)
		defer stop()
		want := fillPattern(t, arr, 0.25)
		b0, p0 := copyCalls(cl, 2)
		rep, err := arr.MigratePages(bg, []elastic.Move{{From: 0, To: 2, Pages: 1}, {From: 1, To: 2, Pages: 1}})
		if err != nil || rep.Moved != 2 {
			t.Fatalf("MigratePages: moved %v, %v; want 2", rep, err)
		}
		if b, p := copyCalls(cl, 2); b-b0 != 1 || p-p0 != 0 {
			t.Errorf("device 2 took pages from devices 0 and 1 in %d applyPipelineK and %d pullSubBatch calls, want 1 and 0", b-b0, p-p0)
		}
		checkPattern(t, arr, want, "after migration")
	})

	t.Run("failover", func(t *testing.T) {
		// Four devices, 2-way round-robin: page l's chain is devices
		// (l%4, l%4+1). Moving page 3's copy off device 0 onto device 1
		// makes its chain (3, 1); with machine 3 dead, Failover re-seeds
		// pages 2 and 6 from device 2 and page 3 from device 1, all onto
		// device 0 (and page 7 from device 0 onto device 1).
		cl, arr, stop := buildReplicated(t, "roundrobin", 4, 2, 4, 4, 4, 2, 2, 2, 4)
		defer stop()
		hb := cl.Client().StartHeartbeat(rmi.HeartbeatConfig{Interval: 20 * time.Millisecond, Misses: 3})
		defer hb.Stop()
		want := fillPattern(t, arr, 0.5)
		if _, err := arr.MigratePages(bg, []elastic.Move{{From: 0, To: 1, Pages: 1}}); err != nil {
			t.Fatalf("MigratePages: %v", err)
		}
		killMachine(t, cl, 3)
		on0, _ := copyCalls(cl, 0)
		b0, p0 := copyCalls(cl, 0, 1, 2)
		rep, err := arr.Failover(bg, 3)
		if err != nil || rep.Reseeded != 4 || rep.Degraded != 0 {
			t.Fatalf("Failover: %+v, %v; want 4 re-seeded, none degraded", rep, err)
		}
		if b, _ := copyCalls(cl, 0); b-on0 != 1 {
			t.Errorf("device 0 took pages from devices 1 and 2 in %d applyPipelineK calls, want 1", b-on0)
		}
		if b, p := copyCalls(cl, 0, 1, 2); b-b0 != 2 || p-p0 != 0 {
			t.Errorf("the re-seeds took %d applyPipelineK calls (want 2, one per destination) and %d pullSubBatch (want 0)", b-b0, p-p0)
		}
		// Reads rotate over a page's replicas: two reads see both copies.
		checkPattern(t, arr, want, "after failover")
		checkPattern(t, arr, want, "after failover, the other replicas")
	})
}
