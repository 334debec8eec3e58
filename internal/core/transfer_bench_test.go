package core_test

import (
	"fmt"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/transport"
)

// BenchmarkArrayWrite and BenchmarkArrayRead move a whole 256³ array
// (128 MiB) in 32³ pages between the caller's buffer and two machines over
// TCP loopback, with the pages on one machine each (k=1) and on both
// (k=2): the profile target of the element-transfer path, pencil walk,
// staging and frames.
func BenchmarkArrayWrite(b *testing.B) {
	benchmarkTransfer(b, func(arr *core.Array, vals []float64) error { return arr.Write(bg, vals, arr.Bounds()) })
}

func BenchmarkArrayRead(b *testing.B) {
	benchmarkTransfer(b, func(arr *core.Array, vals []float64) error { return arr.Read(bg, vals, arr.Bounds()) })
}

func benchmarkTransfer(b *testing.B, op func(arr *core.Array, vals []float64) error) {
	const n, page = 256, 32
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			arr := transferArray(b, k, n, page)
			vals := make([]float64, n*n*n)
			for i := range vals {
				vals[i] = float64(i%1013) - 500
			}
			if err := arr.Write(bg, vals, arr.Bounds()); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * len(vals)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(arr, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// transferArray is an n³ array in page³ pages, round-robin over one
// private-disk device on each of two machines joined by TCP, every page on
// k of them.
func transferArray(b *testing.B, k, n, page int) *core.Array {
	cl, err := cluster.New(cluster.Config{Machines: 2, Transport: transport.TCP{}})
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	b.Cleanup(func() { cl.Shutdown() })
	g := n / page
	pm, err := core.NewRoundRobinMap(g, g, g, 2)
	if err == nil && k > 1 {
		pm, err = core.NewReplicatedMap(pm, k)
	}
	if err != nil {
		b.Fatal(err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{0, 1}, "bench", pm.PagesPerDevice(), page, page, page, pagedev.DiskPrivate)
	if err != nil {
		b.Fatalf("storage: %v", err)
	}
	arr, err := core.NewArray(bg, storage, pm, n, n, n, page, page, page)
	if err != nil {
		b.Fatalf("array: %v", err)
	}
	return arr
}
