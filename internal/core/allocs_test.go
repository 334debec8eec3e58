package core_test

import (
	"testing"

	"oopp/internal/core"
)

// TestCollectiveAllocs pins the fixed cost of a small collective: a
// 2-page Sum (one reduce stage) and a 2-page Axpy (one two-operand
// stage, co-located operand) on one device, client and device side
// together — AllocsPerRun counts the whole process. The ceilings are the
// measured counts plus slack for the runtime's own occasional
// allocations; per-batch garbage in the device engine (index slices,
// request literals, a page of bytes per pull) shows up here first.
func TestCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	a, b, done := buildPair(t, 1, 32, 16)
	defer done()
	vals := make([]float64, 32*32*32)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	for _, arr := range []*core.Array{a, b} {
		if err := arr.Write(bg, vals, arr.Bounds()); err != nil {
			t.Fatal(err)
		}
	}
	dom := core.NewDomain(0, 16, 0, 16, 0, 32)
	sum := testing.AllocsPerRun(200, func() {
		if _, err := a.Sum(bg, dom); err != nil {
			t.Fatal(err)
		}
	})
	axpy := testing.AllocsPerRun(200, func() {
		if err := a.Axpy(bg, 1, b, dom); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per 2-page collective: Sum %.0f, Axpy %.0f", sum, axpy)
	if sum > maxSumAllocs || axpy > maxAxpyAllocs {
		t.Errorf("allocs per 2-page collective: Sum %.0f (max %d), Axpy %.0f (max %d)", sum, maxSumAllocs, axpy, maxAxpyAllocs)
	}

	// The whole array, 8 full pages, written and read back: every page's
	// rows move between vals and its frame, so a call allocates its plan
	// and, per page, a Future and the argument closure — no page-sized
	// buffer, per call or per page.
	out := make([]float64, len(vals))
	write := testing.AllocsPerRun(100, func() {
		if err := a.Write(bg, vals, a.Bounds()); err != nil {
			t.Fatal(err)
		}
	})
	read := testing.AllocsPerRun(100, func() {
		if err := a.Read(bg, out, a.Bounds()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per 8-page transfer: Write %.0f, Read %.0f", write, read)
	if write > maxWriteAllocs || read > maxReadAllocs {
		t.Errorf("allocs per 8-page transfer: Write %.0f (max %d), Read %.0f (max %d)", write, maxWriteAllocs, read, maxReadAllocs)
	}
}

// Measured 24 and 26: the client builds one kernel.Chain and folds each
// reply into the chain's identity partials (before it copied the chain
// into a client-side struct and decoded a partial slice per reply: 30
// and 33), and a region shares its page's chain with the map's table
// (before, a plain map allocated a one-address chain per page per
// operation and the operand's replica lookup another: 26 and 30). Of
// Sum's 24 the device's share is 6 — the decoded batch, the state its
// workers share, ONE slab holding every region's accumulator and one
// naming every region's pages (its own and, in place, its co-located
// operands'); Axpy has no accumulator slab. The rest is the client's
// plan and fan-out.
const (
	maxSumAllocs  = 26
	maxAxpyAllocs = 27
)

// Measured 20 and 27 for 8 pages: no chain is allocated per page (before
// the map was a table, a one-address chain per region: 28 and 35). The
// slack is well under one allocation per page, so a buffer that comes
// back per page trips the ceiling.
const (
	maxWriteAllocs = 23
	maxReadAllocs  = 30
)
