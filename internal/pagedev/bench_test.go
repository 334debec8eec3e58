package pagedev_test

import (
	"testing"

	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// Two-operand chains over two devices on one machine: x is swept, y is the
// operand, 64 pages of 32³ each (16 MiB), whole-page regions — the shape of
// the owner_compute workload's pair. MB/s is of x. Run with -cpu 1,2: the
// batch is shared among the machine's processors.

func benchCoLocated(b *testing.B, p kernel.Pipeline, params [][]float64) {
	const pages, n = 64, 32
	cl := startCluster(b, 1, 0)
	var devs [2]*pagedev.ArrayDevice
	for d := range devs {
		dev, err := pagedev.NewArrayDevice(bg, cl.Client(), 0, "xy"[d:d+1], pages, n, n, n, pagedev.DiskPrivate)
		if err != nil {
			b.Fatal(err)
		}
		defer dev.Close(bg)
		for i := 0; i < pages; i++ {
			if err := dev.FillPage(bg, i, float64(d+1)/4); err != nil {
				b.Fatal(err)
			}
		}
		devs[d] = dev
	}
	c := resolve(b, p, params...)
	batch := pagedev.Batch{Peers: []rmi.Ref{devs[1].Ref()}}
	for i := 0; i < pages; i++ {
		batch.Regions = append(batch.Regions, pagedev.PipeRegion{Index: i, Box: box(n, n, n), Fold: true,
			Peers: []pagedev.PipePeer{{Peer: 0, Index: i}}})
	}
	b.SetBytes(pages * n * n * n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := devs[0].ApplyPipelineK(bg, c, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAxpyCoLocated(b *testing.B) {
	benchCoLocated(b, kernel.Pipeline{Stages: []kernel.Stage{kernel.BinaryStage(kernel.Axpy)}}, [][]float64{{0.5}})
}

// The fused chain x = x/2 + y, Σx: bounded however long it runs.
func BenchmarkChainCoLocated(b *testing.B) {
	benchCoLocated(b, kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage(kernel.Scale), kernel.BinaryStage(kernel.Axpy), kernel.ReduceStage(kernel.Sum)}},
		[][]float64{{0.5}, {1}, nil})
}
