// Benchmarks: one per experiment of the suite `oppbench -list` indexes
// (the paper has no numbered tables/figures; each experiment reproduces
// a claim). The full swept tables are printed by cmd/oppbench; the
// benchmarks here expose each experiment's core operation to `go test
// -bench` so regressions are visible in CI.
package oopp_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"oopp"
	"oopp/internal/cluster"
	"oopp/internal/collection"
	"oopp/internal/core"
	"oopp/internal/disk"
	"oopp/internal/exp"
	"oopp/internal/mp"
	"oopp/internal/pagedev"
	"oopp/internal/pfft"
	"oopp/internal/rmem"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/trace"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

func benchLink() transport.LinkModel {
	return transport.LinkModel{Latency: 20 * time.Microsecond, Bandwidth: 1e9}
}

func benchCluster(b *testing.B, machines int, tr transport.Transport, disks int, model disk.Model) *cluster.Cluster {
	b.Helper()
	cfg := cluster.Config{Machines: machines, Transport: tr}
	if disks > 0 {
		cfg.DisksPerMachine = disks
		cfg.DiskSize = 64 << 20
		cfg.DiskModel = model
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	b.Cleanup(func() { cl.Shutdown() })
	return cl
}

func machines(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkE1_RMILatency — §2: remote method execution round trip, per
// payload size, over the modeled link.
func BenchmarkE1_RMILatency(b *testing.B) {
	cl := benchCluster(b, 2, transport.NewInproc(benchLink()), 0, disk.Model{})
	client := cl.Client()
	ref, err := client.New(bg, 1, exp.ClassEcho, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{0, 1 << 10, 64 << 10} {
		payload := make([]byte, size)
		// Steady-state shape: the argument encoder is hoisted out of the
		// loop and every response decoder is released back to the pool.
		args := func(e *wire.Encoder) error {
			e.PutBytes(payload)
			return nil
		}
		b.Run(fmt.Sprintf("payload=%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				d, err := client.Call(bg, ref, "echo", args)
				if err != nil {
					b.Fatal(err)
				}
				d.Release()
			}
		})
	}
}

// BenchmarkE1_MPBaseline — the hand-written message-passing side of E1.
func BenchmarkE1_MPBaseline(b *testing.B) {
	world, err := mp.NewWorld(transport.NewInproc(benchLink()), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(world.Close)
	go func() {
		c := world.Comm(1)
		for {
			m, err := c.Recv(0, 1)
			if err != nil {
				return
			}
			if err := c.Send(0, 1, m); err != nil {
				return
			}
		}
	}()
	c0 := world.Comm(0)
	for _, size := range []int{0, 1 << 10, 64 << 10} {
		payload := make([]byte, size)
		b.Run(fmt.Sprintf("payload=%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := c0.Send(1, 1, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := c0.Recv(1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_ElementVsBulk — §2: per-element remote access vs bulk.
func BenchmarkE2_ElementVsBulk(b *testing.B) {
	cl := benchCluster(b, 2, transport.NewInproc(benchLink()), 0, disk.Model{})
	const n = 64 << 10
	arr, err := rmem.NewFloat64Array(bg, cl.Client(), 1, n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("element", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := arr.Get(bg, i%n); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, bs := range []int{256, 65536} {
		b.Run(fmt.Sprintf("bulk=%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * bs))
			for i := 0; i < b.N; i++ {
				if _, err := arr.GetRange(bg, 0, bs); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The zero-allocation lane: same transfer, caller-owned buffer,
		// exactly one copy (wire -> dst).
		b.Run(fmt.Sprintf("bulkinto=%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * bs))
			dst := make([]float64, bs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := arr.GetRangeInto(bg, 0, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_SplitLoop — §4: one page from each of 8 devices,
// sequential vs split loop.
func BenchmarkE3_SplitLoop(b *testing.B) {
	const n = 8
	const pageBytes = 64 << 10
	cl := benchCluster(b, n, transport.NewInproc(transport.LinkModel{}), 1,
		disk.Model{Seek: 2 * time.Millisecond, ReadBandwidth: 500e6, WriteBandwidth: 500e6})
	client := cl.Client()
	devs := make([]*pagedev.Device, n)
	var err error
	for i := range devs {
		devs[i], err = pagedev.NewDevice(bg, client, i, "d", 2, pageBytes, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := devs[i].Write(bg, 0, make([]byte, pageBytes)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, d := range devs {
				if _, err := d.Read(bg, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		futs := make([]*rmi.Future, n)
		for i := 0; i < b.N; i++ {
			for j, d := range devs {
				futs[j] = d.ReadAsync(bg, 0)
			}
			if err := rmi.WaitAllReleased(bg, futs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4_MoveDataVsCompute — §3: page sum by fetch+local vs remote.
func BenchmarkE4_MoveDataVsCompute(b *testing.B) {
	cl := benchCluster(b, 2,
		transport.NewInproc(transport.LinkModel{Latency: 50 * time.Microsecond, Bandwidth: 200e6}),
		1, disk.Model{Seek: 100 * time.Microsecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9})
	const elems = 16384
	dev, err := pagedev.NewArrayDevice(bg, cl.Client(), 1, "e4", 2, elems, 1, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.FillPage(bg, 0, 0.5); err != nil {
		b.Fatal(err)
	}
	page := pagedev.NewArrayPage(elems, 1, 1)
	b.Run("move-data", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(elems * 8)
		for i := 0; i < b.N; i++ {
			if err := dev.ReadPage(bg, page, 0); err != nil {
				b.Fatal(err)
			}
			_ = page.Sum()
		}
	})
	b.Run("move-compute", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(elems * 8)
		for i := 0; i < b.N; i++ {
			if _, err := dev.Sum(bg, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5_ParallelFFT — §4: joint transform, worker counts 1 and 2.
func BenchmarkE5_ParallelFFT(b *testing.B) {
	const n = 32
	x := make([]complex128, n*n*n)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			cl := benchCluster(b, p, transport.NewInproc(transport.LinkModel{}), 0, disk.Model{})
			f, err := pfft.New(bg, cl.Client(), machines(p), n, n, n)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close(bg)
			if err := f.Load(bg, x); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Transform(bg, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_FFTvsMP — §1/§6: same FFT via RMI and via message passing.
func BenchmarkE6_FFTvsMP(b *testing.B) {
	const n = 32
	const p = 2
	x := make([]complex128, n*n*n)

	b.Run("oo-process", func(b *testing.B) {
		b.ReportAllocs()
		cl := benchCluster(b, p, transport.NewInproc(transport.LinkModel{}), 0, disk.Model{})
		f, err := pfft.New(bg, cl.Client(), machines(p), n, n, n)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close(bg)
		z := make([]complex128, len(x))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Load(bg, x); err != nil {
				b.Fatal(err)
			}
			if err := f.Transform(bg, -1); err != nil {
				b.Fatal(err)
			}
			if err := f.Gather(bg, z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("message-passing", func(b *testing.B) {
		b.ReportAllocs()
		world, err := mp.NewWorld(transport.NewInproc(transport.LinkModel{}), p)
		if err != nil {
			b.Fatal(err)
		}
		defer world.Close()
		y := make([]complex128, len(x))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(y, x)
			if err := pfft.MPTransform3D(world, y, n, n, n, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7_PageMapLayouts — §5: slab sum under each layout.
func BenchmarkE7_PageMapLayouts(b *testing.B) {
	const devices = 8
	const N, n = 64, 16
	cl := benchCluster(b, devices, transport.NewInproc(transport.LinkModel{}), 1,
		disk.Model{Seek: time.Millisecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9})
	slab := core.NewDomain(0, 16, 0, N, 0, N)
	for _, layout := range core.PageMapNames() {
		b.Run(layout, func(b *testing.B) {
			b.ReportAllocs()
			pm, err := core.NewPageMap(layout, N/n, N/n, N/n, devices)
			if err != nil {
				b.Fatal(err)
			}
			storage, err := core.CreateBlockStorage(bg, cl.Client(), machines(devices), "e7", pm.PagesPerDevice(), n, n, n, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer storage.Close(bg)
			arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
			if err != nil {
				b.Fatal(err)
			}
			if err := arr.Fill(bg, arr.Bounds(), 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arr.Sum(bg, slab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_MultiClient — §5: full-array sum split across C clients
// with sequential per-client semantics.
func BenchmarkE8_MultiClient(b *testing.B) {
	const devices = 8
	const N, n = 64, 16
	cl := benchCluster(b, devices, transport.NewInproc(transport.LinkModel{}), 1,
		disk.Model{Seek: time.Millisecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9})
	pm, err := core.NewPageMap("roundrobin", N/n, N/n, N/n, devices)
	if err != nil {
		b.Fatal(err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), machines(devices), "e8", pm.PagesPerDevice(), n, n, n, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer storage.Close(bg)
	arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
	if err != nil {
		b.Fatal(err)
	}
	if err := arr.Fill(bg, arr.Bounds(), 1); err != nil {
		b.Fatal(err)
	}
	arr.SetPipeline(false)
	for _, clients := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			parts := arr.Bounds().SplitAxis1(clients)
			for i := 0; i < b.N; i++ {
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
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkE9_Barrier — §4: barrier over growing process groups.
func BenchmarkE9_Barrier(b *testing.B) {
	const hosts = 8
	cl := benchCluster(b, hosts, transport.NewInproc(benchLink()), 0, disk.Model{})
	client := cl.Client()
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("group=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			ms := make([]int, size)
			for i := range ms {
				ms[i] = i % hosts
			}
			g, err := collection.SpawnNamed[any](bg, client, collection.OnMachines(ms...), exp.ClassEcho, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer g.Destroy(bg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Barrier(bg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_Persistence — §5: passivate/activate cycle per state size.
func BenchmarkE10_Persistence(b *testing.B) {
	cl := benchCluster(b, 2, transport.NewInproc(benchLink()), 0, disk.Model{})
	client := cl.Client()
	st, err := oopp.NewStore(bg, client, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfgCase := range []struct {
		label    string
		pages    int
		pageSize int
	}{
		{"64KiB", 4, 16 << 10},
		{"1MiB", 16, 64 << 10},
	} {
		b.Run(cfgCase.label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev, err := pagedev.NewDevice(bg, client, 1, "bench", cfgCase.pages, cfgCase.pageSize, pagedev.DiskPrivate)
				if err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("oop://bench/e10/%d", i)
				b.StartTimer()
				if err := st.Passivate(bg, dev.Ref(), name); err != nil {
					b.Fatal(err)
				}
				ref, err := st.Activate(bg, name)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := client.Delete(bg, ref); err != nil {
					b.Fatal(err)
				}
				if err := st.Remove(bg, name); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE11_DeepCopy — §4: group setup with deep vs shallow SetGroup.
func BenchmarkE11_DeepCopy(b *testing.B) {
	const hosts = 8
	const p = 16
	cl := benchCluster(b, hosts, transport.NewInproc(benchLink()), 0, disk.Model{})
	client := cl.Client()
	ms := make([]int, p)
	for i := range ms {
		ms[i] = i % hosts
	}
	b.Run("deep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := pfft.New(bg, client, ms, p, p, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Close(bg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shallow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := pfft.NewShallow(bg, client, ms, p, p, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Close(bg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13_OwnerComputes — one Jacobi sweep, client-side (halo
// slab reads + interior writes through the client) vs owner-computes
// (device-side sweeps, halo planes device-to-device).
func BenchmarkE13_OwnerComputes(b *testing.B) {
	const devices = 8
	const N, n = 32, 4
	cl := benchCluster(b, devices, transport.NewInproc(benchLink()), 0, disk.Model{})
	client := cl.Client()
	grid := N / n
	mk := func(name string, banks int) *core.Array {
		pm, err := core.NewStripedMap(grid, grid, grid, devices)
		if err != nil {
			b.Fatal(err)
		}
		storage, err := core.CreateBlockStorage(bg, client, machines(devices), name,
			banks*pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
		if err != nil {
			b.Fatal(err)
		}
		arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
		if err != nil {
			b.Fatal(err)
		}
		return arr
	}
	seed := func(arr *core.Array) {
		if err := arr.Fill(bg, arr.Bounds(), 0); err != nil {
			b.Fatal(err)
		}
		hot := core.NewDomain(0, 1, 0, N, 0, N)
		face := make([]float64, hot.Size())
		for i := range face {
			face[i] = 100
		}
		if err := arr.Write(bg, face, hot); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("client", func(b *testing.B) {
		b.ReportAllocs()
		ca, cb := mk("e13c-a", 1), mk("e13c-b", 1)
		seed(ca)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Jacobi(bg, ca, cb, 1, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("owner", func(b *testing.B) {
		b.ReportAllocs()
		own := mk("e13o", 2)
		seed(own)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.JacobiOwner(bg, own, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("owner-sum", func(b *testing.B) {
		b.ReportAllocs()
		arr := mk("e13s", 1)
		seed(arr)
		full := arr.Bounds()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := arr.Sum(bg, full); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE15_Replication — the replicated write path: a full-array
// write through a k-way replicated map fans every page out to all k
// replicas (primary-ack), so k=2 should cost ~2x the k=1 bytes and
// round trips; reads pick one live replica and stay at k=1 cost.
func BenchmarkE15_Replication(b *testing.B) {
	const devices = 4
	const N, n = 16, 4
	grid := N / n
	cl := benchCluster(b, devices, transport.NewInproc(benchLink()), 0, disk.Model{})
	mk := func(name string, k int) *core.Array {
		base, err := core.NewRoundRobinMap(grid, grid, grid, devices)
		if err != nil {
			b.Fatal(err)
		}
		pm, err := core.NewReplicatedMap(base, k)
		if err != nil {
			b.Fatal(err)
		}
		storage, err := core.CreateBlockStorage(bg, cl.Client(), machines(devices), name,
			pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
		if err != nil {
			b.Fatal(err)
		}
		arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
		if err != nil {
			b.Fatal(err)
		}
		return arr
	}
	full := core.Box(N, N, N)
	buf := make([]float64, full.Size())
	for _, k := range []int{1, 2} {
		arr := mk(fmt.Sprintf("e15-k%d", k), k)
		b.Run(fmt.Sprintf("write/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * full.Size()))
			for i := 0; i < b.N; i++ {
				if err := arr.Write(bg, buf, full); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("read/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * full.Size()))
			for i := 0; i < b.N; i++ {
				if err := arr.Read(bg, buf, full); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14_ServingTier — the serving-tier hot path: a small echo
// call through a pooled Session (front-door multiplexing plus admission
// control on the server), the operation E14's hotpath phase gates at
// zero allocations.
func BenchmarkE14_ServingTier(b *testing.B) {
	tr := transport.NewInproc(benchLink())
	cl := benchCluster(b, 1, tr, 0, disk.Model{})
	p, err := serve.NewPool(serve.PoolConfig{Transport: tr, Directory: cl.Directory(), Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	sess := p.Session()
	ref, err := sess.New(bg, 0, serve.ClassWork, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	args := serve.EchoArgs(payload)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := sess.Call(bg, ref, "echo", args)
		if err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}

// BenchmarkE12_Collective — §4: collective broadcast/reduce over a typed
// Collection vs the sequential member-by-member baseline. The
// broadcast should cost ~one round trip regardless of member count (up
// to the window); sequential costs one per member.
func BenchmarkE12_Collective(b *testing.B) {
	const hosts = 8
	cl := benchCluster(b, hosts, transport.NewInproc(benchLink()), 0, disk.Model{})
	client := cl.Client()
	for _, size := range []int{4, 8, 32} {
		coll, err := collection.SpawnNamed[any](bg, client, collection.Cyclic(size, hosts), exp.ClassEcho, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("seq/members=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := coll.ForEach(func(m collection.Member) error {
					d, err := client.Call(bg, m.Ref, "noop", nil)
					d.Release()
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("broadcast/members=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := coll.Broadcast(bg, "noop", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reduce/members=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := collection.Reduce(bg, coll, "one", nil, collection.DecodeInt, collection.SumInt)
				if err != nil {
					b.Fatal(err)
				}
				if n != size {
					b.Fatalf("reduce = %d, want %d", n, size)
				}
			}
		})
		if err := coll.Destroy(bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17_Tracing — the observability tax, lane by lane: the same
// small echo call untraced (must stay zero-allocation), with an
// unsampled trace context propagating over the wire, and fully sampled
// (client + server spans captured into the ring). E17's allocs column
// gates the same trajectory in CI.
func BenchmarkE17_Tracing(b *testing.B) {
	cl := benchCluster(b, 2, transport.NewInproc(benchLink()), 0, disk.Model{})
	client := cl.Client()
	ref, err := client.New(bg, 1, exp.ClassEcho, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	args := func(e *wire.Encoder) error {
		e.PutBytes(payload)
		return nil
	}
	lanes := []struct {
		name string
		ctx  context.Context
		opts []rmi.CallOption
	}{
		{"untraced", bg, nil},
		{"unsampled", trace.ContextWith(bg, trace.NewRoot(false)), nil},
		{"sampled", bg, []rmi.CallOption{rmi.WithSampled()}},
	}
	for _, lane := range lanes {
		b.Run(lane.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := client.Call(lane.ctx, ref, "echo", args, lane.opts...)
				if err != nil {
					b.Fatal(err)
				}
				d.Release()
			}
		})
	}
}
