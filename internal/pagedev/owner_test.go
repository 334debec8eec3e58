package pagedev_test

import (
	"runtime"
	"strings"
	"testing"

	"oopp/internal/pagedev"
	"oopp/internal/wire"
)

// TestJacobiPlaneRefusesOversizedPlane: a jacobiPlane request is read off
// a socket, so the page grid it announces is a claim. A frame of a few
// bytes announcing a 4096×4096 plane to a device of three 2×2×2-element
// pages is refused as corrupt before anything is sized from it. Taken as
// it came, its page-index slice alone was 128 MiB, and a larger grid was
// an out-of-memory the server cannot recover from.
func TestJacobiPlaneRefusesOversizedPlane(t *testing.T) {
	c := startCluster(t, 2, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 1, "oversized", 3, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := c.Client().Call(bg, dev.Ref(), "jacobiPlane", func(e *wire.Encoder) error {
		// srcOff, dstOff, qbase, N1, N2, N3, P2, P3, then sync: no page follows.
		for _, v := range []int{0, 0, 0, 2, 2 * 4096, 2 * 4096, 4096, 4096} {
			e.PutInt(v)
		}
		e.PutBool(false)
		return nil
	})
	runtime.ReadMemStats(&after)
	d.Release()
	if err == nil || !strings.Contains(err.Error(), wire.ErrCorrupt.Error()) {
		t.Fatalf("err = %v, want the refusal of a corrupt frame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("refusing the frame allocated %d bytes", grew)
	}
}

// TestJacobiHaloNamesTheNeighboursPages: a halo index names a page of the
// neighbour, and BlockStorage.AddDevice can join a neighbour of more pages
// than this device. A sweep of a two-page device (banks at 0 and 1) whose
// hi halo is page 5 of an eight-page neighbour is served: the one interior
// point averages its six neighbours, of which only the halo's (6) is not
// zero, so the residual is exactly 1. A negative halo index is refused as
// corrupt by the decode.
func TestJacobiHaloNamesTheNeighboursPages(t *testing.T) {
	c := startCluster(t, 2, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "small", 2, 2, 3, 3, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)
	big, err := pagedev.NewArrayDevice(bg, c.Client(), 1, "big", 8, 2, 3, 3, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("neighbour: %v", err)
	}
	defer big.Close(bg)
	sixes := pagedev.NewArrayPage(2, 3, 3)
	for i := range sixes.Data {
		sixes.Data[i] = 6
	}
	if err := big.WritePage(bg, sixes, 5); err != nil {
		t.Fatal(err)
	}
	sweep := func(haloPage int) (float64, error) {
		return pagedev.DecodeResidual(bg, dev.JacobiPlaneAsync(bg, pagedev.JacobiPlaneArgs{
			DstOff: 1, N1: 4, N2: 3, N3: 3, P2: 1, P3: 1, Pages: []int{0},
			Hi: &pagedev.JacobiHalo{Ref: big.Ref(), Pages: []int{haloPage}},
		}))
	}
	if r, err := sweep(5); err != nil || r != 1 {
		t.Fatalf("sweep with the neighbour's page 5 as halo: residual %v, %v; want 1, nil", r, err)
	}
	if _, err := sweep(-1); err == nil || !strings.Contains(err.Error(), wire.ErrCorrupt.Error()) {
		t.Fatalf("halo index -1: %v, want the refusal of a corrupt frame", err)
	}
}
