package exp

import (
	"fmt"
	"sync"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/disk"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/transport"
)

// experimentDisk is the disk model for I/O experiments: a visible seek
// cost so device serialization shows up, scaled down so suites run fast.
func experimentDisk() disk.Model {
	return disk.Model{Seek: 2 * time.Millisecond, ReadBandwidth: 500e6, WriteBandwidth: 500e6}
}

// E3SplitLoop — §4's headline example: a loop reading one page from each
// of N devices, first with sequential §2 semantics, then split by the
// compiler into a send loop and a receive loop. With one disk per device
// the split loop approaches N× speedup.
func E3SplitLoop(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Sequential loop vs compiler-split loop over N devices",
		Claim: "§4: splitting the read loop into send/receive loops parallelizes device" +
			" I/O; with each device on its own disk, time drops from N·t_disk to ~t_disk",
		Columns: []string{"devices", "seq ms", "split ms", "speedup", "ideal"},
	}
	pageBytes := 64 << 10
	sizes := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		sizes = []int{1, 2, 4, 8}
	}
	for _, n := range sizes {
		cl, err := cluster.New(cluster.Config{
			Machines:        n,
			DisksPerMachine: 1,
			DiskSize:        int64(pageBytes * 4),
			DiskModel:       experimentDisk(),
		})
		if err != nil {
			return nil, err
		}
		client := cl.Client()
		devs := make([]*pagedev.Device, n)
		for i := range devs {
			devs[i], err = pagedev.NewDevice(bg, client, i, "d", 4, pageBytes, 0)
			if err != nil {
				cl.Shutdown()
				return nil, err
			}
		}
		page := make([]byte, pageBytes)
		for _, d := range devs {
			if err := d.Write(bg, 0, page); err != nil {
				cl.Shutdown()
				return nil, err
			}
		}

		reps := cfg.iters(2, 5)
		var seq, par time.Duration
		for r := 0; r < reps; r++ {
			start := time.Now()
			for _, d := range devs {
				if _, err := d.Read(bg, 0); err != nil {
					cl.Shutdown()
					return nil, err
				}
			}
			seq += time.Since(start)

			start = time.Now()
			issue := func(i int) *rmi.Future { return devs[i].ReadAsync(bg, 0) }
			if err := rmi.SplitLoop(bg, n, n, issue, nil); err != nil {
				cl.Shutdown()
				return nil, err
			}
			par += time.Since(start)
		}
		seq /= time.Duration(reps)
		par /= time.Duration(reps)
		t.AddRow(fmt.Sprintf("%d", n), msPrec(seq), msPrec(par),
			fmt.Sprintf("%.2fx", float64(seq)/float64(par)), fmt.Sprintf("%dx", n))
		cl.Shutdown()
	}
	t.Note("expected shape: split-loop time ~flat in N, speedup tracking the device count")
	return t, nil
}

// E4MoveDataVsCompute — §3: "the need to choose between moving the data
// to the computation and moving the computation to the data". Sum one
// page either by fetching it (read + local sum) or by remote sum; sweep
// the page size.
func E4MoveDataVsCompute(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Move data to computation vs move computation to data",
		Claim: "§3: object-oriented processes let the programmer choose where the" +
			" computation runs; for large pages shipping the scalar beats shipping the page",
		Columns: []string{"page (f64s)", "bytes", "move-data µs", "move-compute µs", "ratio"},
	}
	cl, err := cluster.New(cluster.Config{
		Machines:        2,
		Transport:       transport.NewInproc(transport.LinkModel{Latency: 50 * time.Microsecond, Bandwidth: 200e6}),
		DisksPerMachine: 1,
		DiskSize:        64 << 20,
		DiskModel:       disk.Model{Seek: 100 * time.Microsecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	client := cl.Client()

	sizes := []int{64, 256, 1024, 4096, 16384, 65536}
	if cfg.Quick {
		sizes = []int{64, 1024, 16384}
	}
	iters := cfg.iters(10, 40)
	for _, elems := range sizes {
		// One page of elems doubles, laid out as elems×1×1.
		dev, err := pagedev.NewArrayDevice(bg, client, 1, "e4", 2, elems, 1, 1, 0)
		if err != nil {
			return nil, err
		}
		if err := dev.FillPage(bg, 0, 0.5); err != nil {
			return nil, err
		}
		page := pagedev.NewArrayPage(elems, 1, 1)

		// Move data: fetch the page, sum locally.
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := dev.ReadPage(bg, page, 0); err != nil {
				return nil, err
			}
			_ = page.Sum()
		}
		moveData := time.Since(start) / time.Duration(iters)

		// Move computation: remote sum, ship the scalar.
		start = time.Now()
		for i := 0; i < iters; i++ {
			if _, err := dev.Sum(bg, 0); err != nil {
				return nil, err
			}
		}
		moveCompute := time.Since(start) / time.Duration(iters)

		t.AddRow(fmt.Sprintf("%d", elems), fmt.Sprintf("%d", elems*8),
			usPrec(moveData), usPrec(moveCompute),
			fmt.Sprintf("%.2f", float64(moveData)/float64(moveCompute)))
		if err := dev.Close(bg); err != nil {
			return nil, err
		}
	}
	t.Note("expected shape: equal at small pages (round trip dominates); move-data grows with page size, move-compute stays flat")
	return t, nil
}

// e7Cluster builds the array used by E7/E8: D devices on D machines,
// one modeled disk each.
func e7Cluster(devices int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Machines:        devices,
		DisksPerMachine: 1,
		DiskSize:        64 << 20,
		DiskModel:       disk.Model{Seek: 1 * time.Millisecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9},
	})
}

func buildE7Array(cl *cluster.Cluster, layout string, devices, N, n int) (*core.Array, *core.BlockStorage, error) {
	grid := N / n
	pm, err := core.NewPageMap(layout, grid, grid, grid, devices)
	if err != nil {
		return nil, nil, err
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), machineList(devices, devices), "e7", pm.PagesPerDevice(), n, n, n, 0)
	if err != nil {
		return nil, nil, err
	}
	arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
	if err != nil {
		storage.Close(bg)
		return nil, nil, err
	}
	return arr, storage, nil
}

// E7PageMapLayouts — §5: "the PageMap describes the array data layout and
// is crucial in determining the I/O patterns of the computation". Sum the
// full array and a first-axis slab under each layout; the slab exposes
// the layouts' parallelism differences sharply.
func E7PageMapLayouts(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "PageMap layout determines I/O parallelism",
		Claim: "§5: the PageMap determines the degree of parallelism of array I/O and" +
			" computation; a layout that concentrates a domain's pages serializes it",
		Columns: []string{"layout", "full-sum ms", "slab-sum ms", "slab disks hit"},
		pinned:  map[string]rule{"layout": label, "slab disks hit": exact},
	}
	const devices = 8
	const N, n = 64, 16 // 4×4×4 page grid, 64 pages

	cl, err := e7Cluster(devices)
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()

	slab := core.NewDomain(0, 16, 0, N, 0, N) // first page-plane: 16 pages

	for _, layout := range core.PageMapNames() {
		arr, storage, err := buildE7Array(cl, layout, devices, N, n)
		if err != nil {
			return nil, err
		}
		full := arr.Bounds()
		if err := arr.Fill(bg, full, 1); err != nil {
			return nil, err
		}

		start := time.Now()
		if _, err := arr.Sum(bg, full); err != nil {
			return nil, err
		}
		fullTime := time.Since(start)

		// Count disk engagement during the slab sum.
		before := make([]int64, devices)
		for i := 0; i < devices; i++ {
			before[i], _ = cl.Machine(i).Disks()[0].Ops()
		}
		start = time.Now()
		if _, err := arr.Sum(bg, slab); err != nil {
			return nil, err
		}
		slabTime := time.Since(start)
		hit := 0
		for i := 0; i < devices; i++ {
			after, _ := cl.Machine(i).Disks()[0].Ops()
			if after > before[i] {
				hit++
			}
		}

		t.AddRow(layout, msPrec(fullTime), msPrec(slabTime), fmt.Sprintf("%d/%d", hit, devices))
		if err := storage.Close(bg); err != nil {
			return nil, err
		}
	}
	t.Note("full sums engage all disks under every layout; the slab separates them: roundrobin/hash spread it, striped concentrates it on one disk, blocked on two")
	return t, nil
}

// E8MultiClient — §5: "an application may deploy multiple coordinating
// Array client processes in parallel". Each client sums a disjoint slab
// with sequential §2 semantics; adding clients recovers the parallelism
// that a single sequential client leaves on the table.
func E8MultiClient(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Multiple Array clients deployed in parallel",
		Claim: "§5: deploying multiple Array clients in parallel scales array" +
			" computations; the PageMap keeps their device sets disjoint enough to overlap",
		Columns: []string{"clients", "sum ms", "speedup"},
	}
	const devices = 8
	const N, n = 64, 16

	cl, err := e7Cluster(devices)
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()

	arr, storage, err := buildE7Array(cl, "roundrobin", devices, N, n)
	if err != nil {
		return nil, err
	}
	defer storage.Close(bg)
	full := arr.Bounds()
	if err := arr.Fill(bg, full, 1); err != nil {
		return nil, err
	}
	// Sequential §2 semantics inside each client; parallelism comes only
	// from deploying more clients.
	arr.SetWindow(1)

	var base time.Duration
	for _, clients := range []int{1, 2, 4, 8} {
		// Split on page boundaries, so that no page is visited by two
		// clients: the array is N/n page-planes deep on the first axis, and
		// clients beyond that share a plane along the second.
		planes := min(clients, N/n)
		var parts []core.Domain
		for _, slab := range full.SplitAxis1(planes) {
			parts = append(parts, slab.SplitAxis(2, clients/planes)...)
		}
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, len(parts))
		for _, dom := range parts {
			wg.Add(1)
			go func(dom core.Domain) {
				defer wg.Done()
				_, err := arr.Sum(bg, dom)
				errCh <- err
			}(dom)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		if clients == 1 {
			base = elapsed
		}
		t.AddRow(fmt.Sprintf("%d", clients), msPrec(elapsed),
			fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
	}
	t.Note("each client runs with strict sequential semantics; speedup comes purely from deploying more clients (§5), up to device saturation")
	return t, nil
}
