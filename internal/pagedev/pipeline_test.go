package pagedev_test

import (
	"errors"
	"math"
	"testing"

	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

var scaleMinMax = kernel.Pipeline{Stages: []kernel.Stage{
	kernel.MapStage(kernel.Scale),
	kernel.ReduceStage(kernel.MinMax),
}}

// The device-level empty-region regression: a fused reduce stage over a
// zero-size sub-box must be skipped entirely — its partial reports
// N == 0 and the ±Inf identity never reaches a merge — while non-empty
// regions in the same batch fold normally. Fold=false regions execute
// the mutating stages but contribute nothing to the partial (the
// replica fan-out contract).
func TestApplyPipelineKEmptyRegionSkips(t *testing.T) {
	c := startCluster(t, 1, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "pipe", 2, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)
	page := pagedev.NewArrayPage(2, 2, 2)
	for i := range page.Data {
		page.Data[i] = float64(i + 1) // 1..8
	}
	if err := dev.WritePage(bg, page, 0); err != nil {
		t.Fatal(err)
	}

	full := pagedev.SubBox{Lo: [3]int{0, 0, 0}, Dim: [3]int{2, 2, 2}}
	empty := pagedev.SubBox{Lo: [3]int{0, 0, 0}, Dim: [3]int{0, 2, 2}}
	chain := resolve(t, scaleMinMax, []float64{2}, nil)

	// A batch that is ONLY empty regions folds nothing and mutates
	// nothing: identity partial, N == 0, zero elements touched.
	touched, parts, err := dev.ApplyPipelineK(bg, chain,
		pagedev.Batch{Regions: []pagedev.PipeRegion{{Index: 0, Box: empty, Fold: true}}})
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if touched != 0 {
		t.Fatalf("empty batch touched %d elements", touched)
	}
	if parts[0].N != 0 || !math.IsInf(parts[0].Acc[0], 1) || !math.IsInf(parts[0].Acc[1], -1) {
		t.Fatalf("empty batch partial = %+v, want identity with N=0", parts[0])
	}

	// Empty and non-empty regions in one batch: only the non-empty one
	// folds, and the scale applied exactly once.
	touched, parts, err = dev.ApplyPipelineK(bg, chain,
		pagedev.Batch{Regions: []pagedev.PipeRegion{
			{Index: 0, Box: empty, Fold: true},
			{Index: 0, Box: full, Fold: true},
		}})
	if err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	if touched != 8 {
		t.Fatalf("mixed batch touched %d elements, want 8", touched)
	}
	if parts[0].N != 8 || parts[0].Acc[0] != 2 || parts[0].Acc[1] != 16 {
		t.Fatalf("mixed batch partial = %+v, want min 2 max 16 over 8", parts[0])
	}

	// Fold=false still mutates (the non-folding replica case) but
	// reports nothing.
	touched, parts, err = dev.ApplyPipelineK(bg, chain,
		pagedev.Batch{Regions: []pagedev.PipeRegion{{Index: 0, Box: full, Fold: false}}})
	if err != nil {
		t.Fatalf("no-fold batch: %v", err)
	}
	if touched != 8 || parts[0].N != 0 {
		t.Fatalf("no-fold batch: touched %d, partial %+v", touched, parts[0])
	}
	back := pagedev.NewArrayPage(2, 2, 2)
	if err := dev.ReadPage(bg, back, 0); err != nil {
		t.Fatal(err)
	}
	for i := range back.Data {
		if want := float64(i+1) * 4; back.Data[i] != want {
			t.Fatalf("element %d = %v, want %v (scale applied per non-empty region exactly once)", i, back.Data[i], want)
		}
	}
}

// A batch count read off the socket must be bounded by the frame, not
// handed to make(): count = 1<<40 is below Go's allocation limit, so an
// unbounded decoder dies with an out-of-memory fatal error no recover
// can catch. Every batch method refuses the frame with an error that
// crosses the wire typed, and the device keeps serving.
func TestOversizedBatchCountRefused(t *testing.T) {
	c := startCluster(t, 1, 0)
	dev, err := pagedev.NewArrayDevice(bg, c.Client(), 0, "huge", 2, 2, 2, 2, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)
	if err := dev.FillPage(bg, 0, 1); err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 40
	chain, err := scaleMinMax.Resolve([][]float64{{2}, nil})
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string]func(e *wire.Encoder){
		"applyPipelineK": func(e *wire.Encoder) {
			pagedev.EncodeApplyPipelineK(e, chain, pagedev.Batch{})
			// Replace the trailing region count (0) with the huge one.
			frame := e.Bytes()
			e.Reset()
			for _, b := range frame[:len(frame)-1] {
				e.PutByte(b)
			}
			e.PutInt(huge)
		},
		"readSubBatch": func(e *wire.Encoder) { e.PutInt(huge) },
		"fencePages":   func(e *wire.Encoder) { e.PutInt(huge) },
	}
	for method, enc := range frames {
		d, err := c.Client().Call(bg, dev.Ref(), method, func(e *wire.Encoder) error { enc(e); return nil })
		d.Release()
		var re *rmi.RemoteError
		if !errors.As(err, &re) {
			t.Errorf("%s(count=1<<40): got %v, want a RemoteError", method, err)
		}
	}
	if s, err := dev.Sum(bg, 0); err != nil || s != 8 {
		t.Fatalf("device stopped serving after refused frames: sum = %v, %v", s, err)
	}
}
