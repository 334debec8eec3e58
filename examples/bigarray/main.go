// Bigarray: the paper's §5 Array — a 3D array paged across many storage
// device processes. The example builds the array under two PageMaps,
// fills a subdomain, computes sums both by moving data and by moving
// computation, copies a subdomain into a second array device to device
// (§5's copyFrom), and shows that the layout decides how many devices an
// operation engages.
//
//	go run ./examples/bigarray
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"oopp"
)

const (
	N       = 64 // array extent per axis
	n       = 16 // page extent per axis
	devices = 4
)

func main() {
	ctx := context.Background()
	cl, err := oopp.NewCluster(oopp.ClusterConfig{
		Machines:        devices,
		DisksPerMachine: 1,
		DiskSize:        64 << 20,
		DiskModel:       oopp.DiskModel{Seek: 500 * time.Microsecond, ReadBandwidth: 500e6, WriteBandwidth: 500e6},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	client := cl.Client()
	machines := []int{0, 1, 2, 3}

	grid := N / n
	for _, layout := range []string{"roundrobin", "blocked"} {
		pm, err := oopp.NewPageMap(layout, grid, grid, grid, devices)
		if err != nil {
			log.Fatal(err)
		}
		// BlockStorage: one ArrayPageDevice process per machine, each on
		// its own disk.
		storage, err := oopp.CreateBlockStorage(ctx, client, machines, "bigarray", pm.PagesPerDevice(), n, n, n, 0)
		if err != nil {
			log.Fatal(err)
		}
		arr, err := oopp.NewArray(ctx, storage, pm, N, N, N, n, n, n)
		if err != nil {
			log.Fatal(err)
		}

		full := oopp.Box(N, N, N)
		if err := arr.Fill(ctx, full, 1); err != nil {
			log.Fatal(err)
		}
		// A subdomain write through the read-modify-write path.
		hot := oopp.NewDomain(10, 30, 5, 25, 0, 64)
		sub := make([]float64, hot.Size())
		for i := range sub {
			sub[i] = 2
		}
		if err := arr.Write(ctx, sub, hot); err != nil {
			log.Fatal(err)
		}

		// Snapshot disk ops so the report below shows this layout's sum
		// only (the disks are shared across layout runs).
		opsBefore := make([]int64, devices)
		for i := 0; i < devices; i++ {
			opsBefore[i], _ = cl.Machine(i).Disks()[0].Ops()
		}
		start := time.Now()
		total, err := arr.Sum(ctx, full)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		want := float64(full.Size()) + float64(hot.Size()) // 1s everywhere + extra 1 in hot
		fmt.Printf("[%-10s] sum(full) = %.0f (want %.0f) in %v\n", layout, total, want, elapsed)

		// How evenly did the layout engage the devices during the sum?
		fmt.Printf("[%-10s] device read ops:", layout)
		for i := 0; i < devices; i++ {
			r, _ := cl.Machine(i).Disks()[0].Ops()
			fmt.Printf(" d%d=%d", i, r-opsBefore[i])
		}
		fmt.Println()

		// §5's copyFrom: a conformant array on a second storage takes the
		// hot subdomain device to device; no element passes through here.
		copyStore, err := oopp.CreateBlockStorage(ctx, client, machines, "bigarray-copy", pm.PagesPerDevice(), n, n, n, oopp.DiskPrivate)
		if err != nil {
			log.Fatal(err)
		}
		dup, err := oopp.NewArray(ctx, copyStore, pm, N, N, N, n, n, n)
		if err != nil {
			log.Fatal(err)
		}
		if err := dup.CopyFrom(ctx, arr, hot); err != nil {
			log.Fatal(err)
		}
		hotSum, err := dup.Sum(ctx, hot)
		if err != nil {
			log.Fatal(err)
		}
		if want := 2 * float64(hot.Size()); hotSum != want {
			log.Fatalf("[%s] copied subdomain sums to %.0f, want %.0f", layout, hotSum, want)
		}
		fmt.Printf("[%-10s] copyFrom(hot) into a second array: sum %.0f\n", layout, hotSum)
		if err := copyStore.Close(ctx); err != nil {
			log.Fatal(err)
		}

		// Move data vs move computation on one page (§3).
		dev := storage.Device(0)
		page := oopp.NewArrayPage(n, n, n)
		start = time.Now()
		if err := dev.ReadPage(ctx, page, 0); err != nil {
			log.Fatal(err)
		}
		localSum := page.Sum()
		moveData := time.Since(start)
		start = time.Now()
		remoteSum, err := dev.Sum(ctx, 0)
		if err != nil {
			log.Fatal(err)
		}
		moveCompute := time.Since(start)
		fmt.Printf("[%-10s] page sum: move-data=%v move-compute=%v (both %.0f)\n\n",
			layout, moveData, moveCompute, localSum)
		_ = remoteSum

		if err := storage.Close(ctx); err != nil {
			log.Fatal(err)
		}
	}
}
