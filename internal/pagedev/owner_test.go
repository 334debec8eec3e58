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
