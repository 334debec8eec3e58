package exp

import (
	"errors"
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

// diskCluster is the cluster of the I/O tables: one machine per device,
// one modeled disk each, whose seek is long enough that device
// serialization shows.
func (x *run) diskCluster(devices int) (*cluster.Cluster, error) {
	return x.cluster(cluster.Config{
		Machines:        devices,
		DisksPerMachine: 1,
		DiskSize:        64 << 20,
		DiskModel:       disk.Model{Seek: 1 * time.Millisecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9},
	})
}

// E3 — §4's headline example: a loop reading one page from each of N
// devices, first with sequential §2 semantics, then split by the compiler
// into a send loop and a receive loop. With one disk per device the split
// loop approaches N× speedup.
var e3 = Experiment{
	ID:    "E3",
	Title: "Sequential loop vs compiler-split loop over N devices",
	Claim: "§4: splitting the read loop into send/receive loops parallelizes device" +
		" I/O; with each device on its own disk, time drops from N·t_disk to ~t_disk",
	Columns: []string{"devices", "seq ms", "split ms", "speedup", "ideal"},
	run: func(x *run) error {
		const pageBytes = 64 << 10
		for _, n := range []int{1, 2, 4, 8} {
			top := len(x.undo)
			cl, err := x.diskCluster(n)
			if err != nil {
				return err
			}
			devs := make([]*pagedev.Device, n)
			page := make([]byte, pageBytes)
			for i := range devs {
				if devs[i], err = pagedev.NewDevice(bg, cl.Client(), i, "d", 4, pageBytes, 0); err != nil {
					return err
				}
				if err := devs[i].Write(bg, 0, page); err != nil {
					return err
				}
			}
			seq, err := measure(0, 2, func() error {
				for _, d := range devs {
					if _, err := d.Read(bg, 0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			issue := func(i int) *rmi.Future { return devs[i].ReadAsync(bg, 0) }
			par, err := measure(0, 2, func() error { return rmi.SplitLoop(bg, n, n, issue, nil) })
			if err != nil {
				return err
			}
			x.AddRow(fmt.Sprintf("%d", n), msPrec(seq.per), msPrec(par.per),
				fmt.Sprintf("%.2fx", float64(seq.per)/float64(par.per)), fmt.Sprintf("%dx", n))
			x.unwind(top)
		}
		x.Note("expected shape: split-loop time ~flat in N, speedup tracking the device count")
		return nil
	},
}

// E4 — §3: "the need to choose between moving the data to the computation
// and moving the computation to the data". Sum one page either by
// fetching it (read + local sum) or by remote sum; sweep the page size.
var e4 = Experiment{
	ID:    "E4",
	Title: "Move data to computation vs move computation to data",
	Claim: "§3: object-oriented processes let the programmer choose where the" +
		" computation runs; for large pages shipping the scalar beats shipping the page",
	Columns: []string{"page (f64s)", "bytes", "move-data µs", "move-compute µs", "ratio"},
	run: func(x *run) error {
		cl, err := x.cluster(cluster.Config{
			Machines:        2,
			Transport:       transport.NewInproc(transport.LinkModel{Latency: 50 * time.Microsecond, Bandwidth: 200e6}),
			DisksPerMachine: 1,
			DiskSize:        64 << 20,
			DiskModel:       disk.Model{Seek: 100 * time.Microsecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9},
		})
		if err != nil {
			return err
		}
		for _, elems := range []int{64, 1024, 16384} {
			// One page of elems doubles, laid out as elems×1×1.
			dev, err := pagedev.NewArrayDevice(bg, cl.Client(), 1, "e4", 2, elems, 1, 1, 0)
			if err != nil {
				return err
			}
			if err := dev.FillPage(bg, 0, 0.5); err != nil {
				return err
			}
			page := pagedev.NewArrayPage(elems, 1, 1)

			// Move data: fetch the page, sum locally.
			moveData, err := measure(0, 10, func() error {
				err := dev.ReadPage(bg, page, 0)
				_ = page.Sum()
				return err
			})
			if err != nil {
				return err
			}
			// Move computation: remote sum, ship the scalar.
			moveCompute, err := measure(0, 10, func() error {
				_, err := dev.Sum(bg, 0)
				return err
			})
			if err != nil {
				return err
			}
			x.AddRow(fmt.Sprintf("%d", elems), fmt.Sprintf("%d", elems*8),
				usPrec(moveData.per), usPrec(moveCompute.per),
				fmt.Sprintf("%.2f", float64(moveData.per)/float64(moveCompute.per)))
			if err := dev.Close(bg); err != nil {
				return err
			}
		}
		x.Note("expected shape: equal at small pages (round trip dominates); move-data grows with page size, move-compute stays flat")
		return nil
	},
}

// E7 — §5: "the PageMap describes the array data layout and is crucial in
// determining the I/O patterns of the computation". Sum the full array
// and a first-axis slab under each layout; the slab exposes the layouts'
// parallelism differences sharply.
var e7 = Experiment{
	ID:    "E7",
	Title: "PageMap layout determines I/O parallelism",
	Claim: "§5: the PageMap determines the degree of parallelism of array I/O and" +
		" computation; a layout that concentrates a domain's pages serializes it",
	Columns: []string{"layout", "full-sum ms", "slab-sum ms", "slab disks hit"},
	pinned:  map[string]rule{"layout": label, "slab disks hit": exact},
	run: func(x *run) error {
		const devices = 8
		const N, n = 64, 16 // 4×4×4 page grid, 64 pages
		cl, err := x.diskCluster(devices)
		if err != nil {
			return err
		}
		slab := core.NewDomain(0, 16, 0, N, 0, N) // first page-plane: 16 pages
		ops := func(i int) int64 { n, _ := cl.Machine(i).Disks()[0].Ops(); return n }

		for _, layout := range core.PageMapNames() {
			top := len(x.undo)
			arr, err := x.array(cl, layout, N, n, 0)
			if err != nil {
				return err
			}
			full := arr.Bounds()
			if err := arr.Fill(bg, full, 1); err != nil {
				return err
			}
			fullSum, err := measure(0, 1, func() error { _, err := arr.Sum(bg, full); return err })
			if err != nil {
				return err
			}
			// Count disk engagement during the slab sum.
			before := make([]int64, devices)
			for i := range before {
				before[i] = ops(i)
			}
			slabSum, err := measure(0, 1, func() error { _, err := arr.Sum(bg, slab); return err })
			if err != nil {
				return err
			}
			hit := 0
			for i := range before {
				if ops(i) > before[i] {
					hit++
				}
			}
			x.AddRow(layout, msPrec(fullSum.per), msPrec(slabSum.per), fmt.Sprintf("%d/%d", hit, devices))
			x.unwind(top)
		}
		x.Note("full sums engage all disks under every layout; the slab separates them: roundrobin/hash spread it, striped concentrates it on one disk, blocked on two")
		return nil
	},
}

// E8 — §5: "an application may deploy multiple coordinating Array client
// processes in parallel". Each client sums a disjoint slab with
// sequential §2 semantics; adding clients recovers the parallelism that a
// single sequential client leaves on the table.
var e8 = Experiment{
	ID:    "E8",
	Title: "Multiple Array clients deployed in parallel",
	Claim: "§5: deploying multiple Array clients in parallel scales array" +
		" computations; the PageMap keeps their device sets disjoint enough to overlap",
	Columns: []string{"clients", "sum ms", "speedup"},
	run: func(x *run) error {
		const N, n = 64, 16
		cl, err := x.diskCluster(8)
		if err != nil {
			return err
		}
		arr, err := x.array(cl, "roundrobin", N, n, 0)
		if err != nil {
			return err
		}
		full := arr.Bounds()
		if err := arr.Fill(bg, full, 1); err != nil {
			return err
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
			s, err := measure(0, 1, func() error {
				var wg sync.WaitGroup
				errs := make([]error, len(parts))
				for i, dom := range parts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[i] = arr.Sum(bg, dom)
					}()
				}
				wg.Wait()
				return errors.Join(errs...)
			})
			if err != nil {
				return err
			}
			if clients == 1 {
				base = s.per
			}
			x.AddRow(fmt.Sprintf("%d", clients), msPrec(s.per),
				fmt.Sprintf("%.2fx", float64(base)/float64(s.per)))
		}
		x.Note("each client runs with strict sequential semantics; speedup comes purely from deploying more clients (§5), up to device saturation")
		return nil
	},
}
