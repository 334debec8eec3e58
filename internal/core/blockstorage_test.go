package core

import (
	"context"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/pagedev"
)

var bgCtx = context.Background()

func storageCluster(t *testing.T, machines int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.NewLocal(machines, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { cl.Shutdown() })
	return cl
}

func TestBlockStorageCollectives(t *testing.T) {
	cl := storageCluster(t, 3)
	const (
		pages      = 2
		n1, n2, n3 = 2, 2, 2
	)
	b, err := CreateBlockStorage(bgCtx, cl.Client(), []int{0, 1, 2}, "bs", pages, n1, n2, n3, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if b.Len() != 3 || b.Collection().Len() != 3 {
		t.Fatalf("storage has %d devices", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if b.Device(i).Ref().Machine != i {
			t.Fatalf("device %d on machine %d", i, b.Device(i).Ref().Machine)
		}
	}

	// An array over every page of every device: a fill broadcast, then a
	// sum reduction — partial sums on the devices, combined here.
	pm, err := NewRoundRobinMap(1, 1, 3*pages, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray(bgCtx, b, pm, n1, n2, 3*pages*n3, n1, n2, n3)
	if err != nil {
		t.Fatalf("array: %v", err)
	}
	if err := a.Fill(bgCtx, a.Bounds(), 1.5); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if err := b.Barrier(bgCtx); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	sum, err := a.Sum(bgCtx, a.Bounds())
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	want := 1.5 * float64(3*pages*n1*n2*n3)
	if sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}

	// The devices' served counters: the fill wrote every page once (the
	// fill kernel is write-only: no page load) and the sum read every
	// page once.
	var reads, writes int64
	for i := 0; i < b.Len(); i++ {
		r, w, err := b.Device(i).Stats(bgCtx)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		reads, writes = reads+r, writes+w
	}
	if reads != int64(3*pages) || writes != int64(3*pages) {
		t.Fatalf("io = %d reads %d writes, want %d/%d", reads, writes, 3*pages, 3*pages)
	}

	if err := b.Close(bgCtx); err != nil {
		t.Fatalf("close: %v", err)
	}
	for m := 0; m < 3; m++ {
		live, _, err := cl.Client().Stat(bgCtx, m)
		if err != nil {
			t.Fatal(err)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after close", m, live)
		}
	}
}

func TestCreateBlockStorageFailureCleansUp(t *testing.T) {
	cl := storageCluster(t, 2)
	// Invalid geometry: every constructor fails; nothing may leak.
	if _, err := CreateBlockStorage(bgCtx, cl.Client(), []int{0, 1}, "bad", 2, -1, 2, 2, pagedev.DiskPrivate); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	for m := 0; m < 2; m++ {
		live, _, err := cl.Client().Stat(bgCtx, m)
		if err != nil {
			t.Fatal(err)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after failed create", m, live)
		}
	}
}
