package core_test

import (
	"errors"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/transport"
)

// TestReplicatedMapGeometry pins the bank layout: replica sets never
// share a device, addresses stay injective, capacity scales by k, and
// the name grammar round-trips through NewPageMap.
func TestReplicatedMapGeometry(t *testing.T) {
	for _, layout := range core.PageMapNames() {
		base, err := core.NewPageMap(layout, 3, 2, 2, 4)
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		rm, err := core.NewReplicatedMap(base, 2)
		if err != nil {
			t.Fatalf("%s: replicate: %v", layout, err)
		}
		if got := rm.PagesPerDevice(); got != 2*base.PagesPerDevice() {
			t.Fatalf("%s: PagesPerDevice = %d, want %d", layout, got, 2*base.PagesPerDevice())
		}
		seen := make(map[core.PageAddress]bool)
		for p1 := 0; p1 < 3; p1++ {
			for p2 := 0; p2 < 2; p2++ {
				for p3 := 0; p3 < 2; p3++ {
					chain := rm.LocateAll(p1, p2, p3)
					if len(chain) != 2 {
						t.Fatalf("%s: chain length %d, want 2", layout, len(chain))
					}
					if chain[0] != rm.Locate(p1, p2, p3) || chain[0] != base.Locate(p1, p2, p3) {
						t.Fatalf("%s: primary %v disagrees with base %v", layout, chain[0], base.Locate(p1, p2, p3))
					}
					if chain[0].Device == chain[1].Device {
						t.Fatalf("%s: replicas of (%d,%d,%d) share device %d", layout, p1, p2, p3, chain[0].Device)
					}
					for _, addr := range chain {
						if addr.Device < 0 || addr.Device >= 4 || addr.Index < 0 || addr.Index >= rm.PagesPerDevice() {
							t.Fatalf("%s: address %v out of range", layout, addr)
						}
						if seen[addr] {
							t.Fatalf("%s: address %v assigned twice", layout, addr)
						}
						seen[addr] = true
					}
				}
			}
		}
		// Name grammar: "<base>+r2" parses back to an equivalent map.
		reopened, err := core.NewPageMap(rm.Name(), 3, 2, 2, 4)
		if err != nil {
			t.Fatalf("reopen %q: %v", rm.Name(), err)
		}
		if reopened.Replicas() != 2 {
			t.Fatalf("reopened %q is not a 2-way replica map", rm.Name())
		}
		if got := reopened.LocateAll(2, 1, 1); got[0] != rm.LocateAll(2, 1, 1)[0] || got[1] != rm.LocateAll(2, 1, 1)[1] {
			t.Fatalf("reopened map disagrees: %v vs %v", got, rm.LocateAll(2, 1, 1))
		}
	}

	base, _ := core.NewRoundRobinMap(2, 2, 2, 3)
	if _, err := core.NewReplicatedMap(base, 4); err == nil {
		t.Fatal("replication factor above device count accepted")
	}
	if _, err := core.NewReplicatedMap(base, 0); err == nil {
		t.Fatal("replication factor 0 accepted")
	}
}

// buildReplicated brings up an in-proc cluster with one machine per
// device and a k-way replicated array over it, provisioning each device
// with spare page slots for failover re-seeding.
func buildReplicated(t testing.TB, layout string, devices, k, N1, N2, N3, n1, n2, n3, sparePages int) (*cluster.Cluster, *core.Array, func()) {
	t.Helper()
	return buildReplicatedOn(t, nil, layout, devices, k, N1, N2, N3, n1, n2, n3, sparePages)
}

// buildReplicatedOn is buildReplicated with the machines joined by tr
// (nil: in-proc).
func buildReplicatedOn(t testing.TB, tr transport.Transport, layout string, devices, k, N1, N2, N3, n1, n2, n3, sparePages int) (*cluster.Cluster, *core.Array, func()) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Machines: devices, Transport: tr})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	base, err := core.NewPageMap(layout, N1/n1, N2/n2, N3/n3, devices)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("pagemap: %v", err)
	}
	pm, err := core.NewReplicatedMap(base, k)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("replicate: %v", err)
	}
	machines := make([]int, devices)
	for i := range machines {
		machines[i] = i
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), machines, "rarr", pm.PagesPerDevice()+sparePages, n1, n2, n3, pagedev.DiskPrivate)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("storage: %v", err)
	}
	arr, err := core.NewArray(bg, storage, pm, N1, N2, N3, n1, n2, n3)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("array: %v", err)
	}
	return cl, arr, func() {
		storage.Close(bg)
		cl.Shutdown()
	}
}

// TestReplicaReadsRotateAcrossChain pins the read-scaling half of
// replication: repeated reads of the same hot page spread across its
// k=2 replica chain instead of hammering the chain primary — both
// devices of the chain serve a healthy share of the traffic.
func TestReplicaReadsRotateAcrossChain(t *testing.T) {
	const N, n = 8, 4
	_, arr, done := buildReplicated(t, "roundrobin", 2, 2, N, N, N, n, n, n, 0)
	defer done()

	full := core.Box(N, N, N)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i)
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}

	chain := arr.Map().LocateAll(0, 0, 0)
	if len(chain) != 2 || chain[0].Device == chain[1].Device {
		t.Fatalf("unexpected chain %v", chain)
	}
	storage := arr.Storage()
	baseReads := make(map[int]int64, 2)
	for _, addr := range chain {
		r, _, err := storage.Device(addr.Device).Stats(bg)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		baseReads[addr.Device] = r
	}

	// Hammer page (0,0,0): each Read covers exactly that one page.
	const hits = 12
	hot := core.NewDomain(0, n, 0, n, 0, n)
	got := make([]float64, hot.Size())
	for i := 0; i < hits; i++ {
		if err := arr.Read(bg, got, hot); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}

	total := int64(0)
	for _, addr := range chain {
		r, _, err := storage.Device(addr.Device).Stats(bg)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		served := r - baseReads[addr.Device]
		total += served
		// Strict round-robin gives hits/2 each; any healthy rotation
		// gives every chain member a real share, not a stray one-off.
		if served < hits/4 {
			t.Errorf("device %d served %d of %d hot reads — chain not rotated", addr.Device, served, hits)
		}
	}
	if total < hits {
		t.Errorf("chain served %d reads, expected at least %d", total, hits)
	}
}

// TestReplicatedWriteFansOut pins the physical contract behind failover:
// after writes and kernels through the replicated surface, every replica
// bank holds bitwise-identical page contents (verified by reading the
// banks directly, bypassing replica routing).
func TestReplicatedWriteFansOut(t *testing.T) {
	const N, n = 8, 4
	_, arr, done := buildReplicated(t, "roundrobin", 3, 2, N, N, N, n, n, n, 0)
	defer done()

	full := core.Box(N, N, N)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i%17) - 5
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}
	// A partial-page write and a kernel both must fan out too.
	if err := arr.Write(bg, []float64{42, 43}, core.NewDomain(1, 2, 2, 3, 1, 3)); err != nil {
		t.Fatalf("sub write: %v", err)
	}
	if err := arr.Scale(bg, full, 2); err != nil {
		t.Fatalf("scale: %v", err)
	}

	rm := arr.Map()
	g1, g2, g3 := N/n, N/n, N/n
	page0 := pagedev.NewArrayPage(n, n, n)
	page1 := pagedev.NewArrayPage(n, n, n)
	for p1 := 0; p1 < g1; p1++ {
		for p2 := 0; p2 < g2; p2++ {
			for p3 := 0; p3 < g3; p3++ {
				chain := rm.LocateAll(p1, p2, p3)
				if err := arr.Storage().Device(chain[0].Device).ReadPage(bg, page0, chain[0].Index); err != nil {
					t.Fatalf("read primary %v: %v", chain[0], err)
				}
				for _, addr := range chain[1:] {
					if err := arr.Storage().Device(addr.Device).ReadPage(bg, page1, addr.Index); err != nil {
						t.Fatalf("read replica %v: %v", addr, err)
					}
					for i := range page0.Data {
						if page0.Data[i] != page1.Data[i] {
							t.Fatalf("page (%d,%d,%d): replica %v diverged from primary %v at element %d: %v vs %v",
								p1, p2, p3, addr, chain[0], i, page1.Data[i], page0.Data[i])
						}
					}
				}
			}
		}
	}
}

// killMachine closes machine m's server and waits for the heartbeat to
// mark it down on the array client.
func killMachine(t *testing.T, cl *cluster.Cluster, m int) {
	t.Helper()
	cl.Machine(m).Server().Close()
	deadline := time.Now().Add(10 * time.Second)
	for cl.Client().MachineDown(m) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("machine %d never marked down", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatedFailover is the tentpole scenario in-proc: kill one
// machine under a 2-way replicated array, verify degraded writes keep
// succeeding, then Failover and verify zero data loss, full reads, and
// restored write fan-out.
func TestReplicatedFailover(t *testing.T) {
	const N, n, devices = 8, 4, 4
	cl, arr, done := buildReplicated(t, "roundrobin", devices, 2, N, N, N, n, n, n, 8)
	defer done()

	hb := cl.Client().StartHeartbeat(rmi.HeartbeatConfig{Interval: 20 * time.Millisecond, Misses: 3})
	defer hb.Stop()

	full := core.Box(N, N, N)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(3*i%31) + 0.5
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}
	preSum, err := arr.Sum(bg, full)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	var srcSum float64
	for _, v := range src {
		srcSum += v
	}
	if !closeTo(preSum, srcSum) {
		t.Fatalf("pre-kill sum = %v, want %v", preSum, srcSum)
	}

	killMachine(t, cl, 2)

	// Degraded phase: reads route around the dead machine, writes land on
	// survivors with the dead replica tolerated and counted.
	got := make([]float64, full.Size())
	if err := arr.Read(bg, got, full); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("degraded read: element %d = %v, want %v", i, got[i], src[i])
		}
	}
	// Page (0,1,0) is linear page 2 — primary on the dead device 2,
	// replica on device 3: the write must land on the survivor and count
	// the dead copy as tolerated.
	if err := arr.Write(bg, []float64{7, 8, 9, 10}, core.NewDomain(0, 1, 4, 8, 0, 1)); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	src[4*N], src[5*N], src[6*N], src[7*N] = 7, 8, 9, 10
	if arr.DegradedWrites() == 0 {
		t.Fatal("degraded write not counted")
	}
	var want float64
	for _, v := range src {
		want += v
	}
	if sum, err := arr.Sum(bg, full); err != nil {
		t.Fatalf("degraded sum: %v", err)
	} else if !closeTo(sum, want) {
		t.Fatalf("degraded sum = %v, want %v", sum, want)
	}

	// Failover: re-mint the map, re-seed lost replicas onto survivors.
	rep, err := arr.Failover(bg, 2)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if len(rep.DeadDevices) != 1 || rep.DeadDevices[0] != 2 {
		t.Fatalf("dead devices = %v, want [2]", rep.DeadDevices)
	}
	if len(rep.Lost) != 0 {
		t.Fatalf("lost pages = %v, want none", rep.Lost)
	}
	if rep.Reseeded == 0 {
		t.Fatal("no replicas re-seeded despite spare capacity")
	}
	if rep.Degraded != 0 {
		t.Fatalf("%d pages left degraded despite spare capacity", rep.Degraded)
	}

	// Post-failover: full reads equal the pre-kill data (plus the
	// degraded write), new writes and kernels succeed with no degraded
	// tolerance needed, and chains never touch device 2.
	if err := arr.Read(bg, got, full); err != nil {
		t.Fatalf("post-failover read: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("post-failover read: element %d = %v, want %v", i, got[i], src[i])
		}
	}
	rm := arr.Map()
	for p1 := 0; p1 < N/n; p1++ {
		for p2 := 0; p2 < N/n; p2++ {
			for p3 := 0; p3 < N/n; p3++ {
				chain := rm.LocateAll(p1, p2, p3)
				if len(chain) != 2 {
					t.Fatalf("page (%d,%d,%d): chain %v, want 2 live replicas", p1, p2, p3, chain)
				}
				for _, addr := range chain {
					if addr.Device == 2 {
						t.Fatalf("page (%d,%d,%d): chain %v still references dead device", p1, p2, p3, chain)
					}
				}
			}
		}
	}
	before := arr.DegradedWrites()
	if err := arr.Fill(bg, full, 1); err != nil {
		t.Fatalf("post-failover fill: %v", err)
	}
	if arr.DegradedWrites() != before {
		t.Fatal("post-failover write still tolerating a dead replica")
	}
	if sum, err := arr.Sum(bg, full); err != nil {
		t.Fatalf("post-failover sum: %v", err)
	} else if !closeTo(sum, float64(N*N*N)) {
		t.Fatalf("post-failover sum = %v, want %v", sum, N*N*N)
	}
	// Idempotent: same dead set, nothing more to do.
	rep2, err := arr.Failover(bg, 2)
	if err != nil {
		t.Fatalf("second failover: %v", err)
	}
	if rep2.Reseeded != 0 || rep2.Promoted != 0 || len(rep2.Lost) != 0 {
		t.Fatalf("second failover not a no-op: %+v", rep2)
	}
}

// TestUnreplicatedKillFailsTyped pins the k=1 contract: with no replicas
// a dead machine surfaces the typed machine-down error, and Failover
// reports the pages as lost instead of pretending.
func TestUnreplicatedKillFailsTyped(t *testing.T) {
	const N, n, devices = 8, 4, 4
	cl, arr, done := buildReplicated(t, "roundrobin", devices, 1, N, N, N, n, n, n, 8)
	defer done()

	hb := cl.Client().StartHeartbeat(rmi.HeartbeatConfig{Interval: 20 * time.Millisecond, Misses: 3})
	defer hb.Stop()

	full := core.Box(N, N, N)
	if err := arr.Fill(bg, full, 1); err != nil {
		t.Fatalf("fill: %v", err)
	}
	killMachine(t, cl, 1)

	got := make([]float64, full.Size())
	if err := arr.Read(bg, got, full); !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("k=1 read with dead machine: got %v, want ErrMachineDown", err)
	}
	if err := arr.Write(bg, got, full); !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("k=1 write with dead machine: got %v, want ErrMachineDown", err)
	}
	rep, err := arr.Failover(bg, 1)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if len(rep.Lost) == 0 {
		t.Fatal("k=1 failover reported no lost pages")
	}
}

// TestCheckpointRecover pins the k=1 cold-recovery lane: checkpoint an
// array to a store on a machine it does not live on, kill the array's
// machines, recover on the survivor, and compare contents.
func TestCheckpointRecover(t *testing.T) {
	const N, n = 8, 4
	cl, err := cluster.NewLocal(3, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()

	pm, err := core.NewRoundRobinMap(N/n, N/n, N/n, 2)
	if err != nil {
		t.Fatalf("pagemap: %v", err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{1, 2}, "ck", pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("storage: %v", err)
	}
	arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
	if err != nil {
		t.Fatalf("array: %v", err)
	}

	full := core.Box(N, N, N)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i)*0.25 - 9
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}

	// The store lives on machine 0 — a machine the array does not touch.
	store, err := persist.NewStore(bg, cl.Client(), 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := core.CheckpointArray(bg, arr, store, "ck/arr"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Both array machines die. No heartbeat needed: recovery talks only
	// to the surviving store machine.
	cl.Machine(1).Server().Close()
	cl.Machine(2).Server().Close()

	rec, err := core.RecoverArray(bg, cl.Client(), store, "ck/arr")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	got := make([]float64, full.Size())
	if err := rec.Read(bg, got, full); err != nil {
		t.Fatalf("recovered read: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("recovered element %d = %v, want %v", i, got[i], src[i])
		}
	}
	// The recovered array is fully writable.
	if err := rec.Fill(bg, full, 3); err != nil {
		t.Fatalf("recovered fill: %v", err)
	}
	if sum, err := rec.Sum(bg, full); err != nil {
		t.Fatalf("recovered sum: %v", err)
	} else if !closeTo(sum, 3*float64(N*N*N)) {
		t.Fatalf("recovered sum = %v, want %v", sum, 3*N*N*N)
	}
	if err := core.RemoveCheckpoint(bg, store, "ck/arr", 2); err != nil {
		t.Fatalf("remove checkpoint: %v", err)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+absF(a)+absF(b))
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
