package pagedev_test

import (
	"errors"
	"testing"

	"oopp/internal/kernel"
	"oopp/internal/metrics"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// TestMigrationFence pins the device half of live page migration: fenced
// pages refuse mutation typed (rmi.ErrFenced) while reads keep flowing,
// batched mutators refuse all-or-nothing (a whole-device kernel batch
// refuses while any fence is up), and the adopt/release protocol moves
// the migration gauges.
func TestMigrationFence(t *testing.T) {
	c := startCluster(t, 1, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "fenced", 3, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)
	for idx, v := range []float64{1, 2, 3} {
		if err := dev.FillPage(bg, idx, v); err != nil {
			t.Fatal(err)
		}
	}

	before := metrics.Default.Snapshot()
	if err := dev.FencePages(bg, []int{1}); err != nil {
		t.Fatalf("FencePages: %v", err)
	}

	// Mutating the fenced page is refused typed; its neighbors stay
	// writable and the fenced page stays readable.
	if err := dev.FillPage(bg, 1, 9); !errors.Is(err, rmi.ErrFenced) {
		t.Fatalf("fenced FillPage: got %v, want rmi.ErrFenced", err)
	}
	if err := dev.FillPage(bg, 0, 9); err != nil {
		t.Fatalf("unfenced FillPage: %v", err)
	}
	if s, err := dev.Sum(bg, 1); err != nil || s != 2*8 {
		t.Fatalf("fenced page read: sum = %v, %v (want 16)", s, err)
	}

	// A kernel batch over every page refuses while any fence is up, and
	// applies nowhere.
	fill := resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage(kernel.Fill)}}, []float64{5})
	box := pagedev.SubBox{Dim: [3]int{2, 2, 2}}
	_, _, err = dev.ApplyPipelineK(bg, fill, pagedev.Batch{Regions: []pagedev.PipeRegion{{Index: 0, Box: box}, {Index: 1, Box: box}, {Index: 2, Box: box}}})
	if !errors.Is(err, rmi.ErrFenced) {
		t.Fatalf("fill of every page under fence: got %v, want rmi.ErrFenced", err)
	}
	if s, err := dev.Sum(bg, 0); err != nil || s != 9*8 {
		t.Fatalf("refused batch partially applied: page 0 sum = %v, %v (want 72)", s, err)
	}

	// A batched mutator touching the fenced page refuses the WHOLE
	// batch: the unfenced page of the pair must be untouched too.
	cp := resolve(t, kernel.Pipeline{Stages: []kernel.Stage{kernel.BinaryStage(kernel.Copy)}}, nil)
	from0 := []pagedev.PipePeer{{Peer: 0, Index: 0}}
	_, _, err = dev.ApplyPipelineK(bg, cp, pagedev.Batch{Peers: []rmi.Ref{dev.Ref()}, Regions: []pagedev.PipeRegion{{Index: 2, Box: box, Peers: from0}, {Index: 1, Box: box, Peers: from0}}})
	if !errors.Is(err, rmi.ErrFenced) {
		t.Fatalf("batch with fenced dst: got %v, want rmi.ErrFenced", err)
	}
	if s, err := dev.Sum(bg, 2); err != nil || s != 3*8 {
		t.Fatalf("batch partially applied: page 2 sum = %v, %v (want 24)", s, err)
	}

	// Abort path: unfence without release — page is writable again and
	// the pages-held gauge did not move.
	if err := dev.UnfencePages(bg, []int{1}, false); err != nil {
		t.Fatalf("UnfencePages(abort): %v", err)
	}
	if err := dev.FillPage(bg, 1, 9); err != nil {
		t.Fatalf("FillPage after abort: %v", err)
	}
	if d := metrics.Default.Snapshot().Sub(before); d.PagesHeld != 0 {
		t.Fatalf("aborted migration moved PagesHeld by %d", d.PagesHeld)
	}

	// Completion path: release on the source, adopt on the destination.
	if err := dev.FencePages(bg, []int{2}); err != nil {
		t.Fatal(err)
	}
	if err := dev.UnfencePages(bg, []int{2}, true); err != nil {
		t.Fatal(err)
	}
	if err := dev.AdoptPages(bg, 1, 64); err != nil {
		t.Fatal(err)
	}
	d := metrics.Default.Snapshot().Sub(before)
	if d.PagesHeld != 0 || d.PagesMigrated != 1 || d.BytesMigrated != 64 {
		t.Fatalf("migration gauges = held %d, migrated %d, bytes %d; want 0, 1, 64",
			d.PagesHeld, d.PagesMigrated, d.BytesMigrated)
	}

	// A released slot stays RETIRED: a client still holding the pre-flip
	// map keeps getting the typed refusal rather than writing into a
	// dead slot. Clearing the retired fence (abort-style) reclaims it as
	// a destination for the next migration.
	if err := dev.FillPage(bg, 2, 9); !errors.Is(err, rmi.ErrFenced) {
		t.Fatalf("write to retired slot: got %v, want rmi.ErrFenced", err)
	}
	if err := dev.UnfencePages(bg, []int{2}, false); err != nil {
		t.Fatalf("reclaiming retired slot: %v", err)
	}
	if err := dev.FillPage(bg, 2, 9); err != nil {
		t.Fatalf("FillPage after reclaim: %v", err)
	}

	// Out-of-range fence index is refused like any other bad address.
	if err := dev.FencePages(bg, []int{17}); err == nil {
		t.Fatal("fencing page 17 of a 3-page device must fail")
	}
}

// A refused fencePages or unfencePages changes nothing: a bad index
// anywhere in the list leaves the fence set and the gauges as they were.
func TestRefusedFenceChangesNothing(t *testing.T) {
	c := startCluster(t, 1, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "refused", 3, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)

	if err := dev.FencePages(bg, []int{0, 3}); err == nil {
		t.Fatal("fencing pages 0 and 3 of a 3-page device must fail")
	}
	if err := dev.FillPage(bg, 0, 1); err != nil {
		t.Fatalf("FillPage after a refused fence: %v", err)
	}

	if err := dev.FencePages(bg, []int{1}); err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.Snapshot()
	for _, release := range []bool{false, true} {
		if err := dev.UnfencePages(bg, []int{1, 3}, release); err == nil {
			t.Fatalf("unfencing pages 1 and 3 (release=%v) of a 3-page device must fail", release)
		}
	}
	if err := dev.FillPage(bg, 1, 1); !errors.Is(err, rmi.ErrFenced) {
		t.Fatalf("FillPage after a refused unfence: got %v, want rmi.ErrFenced", err)
	}
	if d := metrics.Default.Snapshot().Sub(before); d.PagesHeld != 0 {
		t.Fatalf("refused unfence moved PagesHeld by %d", d.PagesHeld)
	}
}
