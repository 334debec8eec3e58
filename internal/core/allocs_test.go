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

	// The same 8 pages on two machines, each page on both: 16 write calls
	// from one staging of each pencil, and 8 reads.
	_, k2, doneK2 := buildReplicated(t, "roundrobin", 2, 2, 32, 32, 32, 16, 16, 16, 0)
	defer doneK2()
	write = testing.AllocsPerRun(100, func() {
		if err := k2.Write(bg, vals, k2.Bounds()); err != nil {
			t.Fatal(err)
		}
	})
	read = testing.AllocsPerRun(100, func() {
		if err := k2.Read(bg, out, k2.Bounds()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per 8-page k=2 transfer: Write %.0f, Read %.0f", write, read)
	if write > maxWriteK2Allocs || read > maxReadK2Allocs {
		t.Errorf("allocs per 8-page k=2 transfer: Write %.0f (max %d), Read %.0f (max %d)", write, maxWriteK2Allocs, read, maxReadK2Allocs)
	}
}

// Measured 20 and 22: core hands its plan's device refs to rmi.FanOut
// itself (before, every call built a collection view of the involved
// devices — its member slice, its ref slice and the view — to reach the
// same fan-out: 24 and 26, with the slice of live replicas pickLive
// allocated per page), and the plan's ref slice is one allocation. Of
// Sum's 20 the device's share is 6 — the decoded batch, the state its
// workers share, ONE slab holding every region's accumulator and one
// naming every region's pages (its own and, in place, its co-located
// operands'); Axpy has no accumulator slab. The rest is the client's
// plan and fan-out: the plan's batch map, device and ref lists and
// region slices, the reduce totals and results, and the fan-out's
// Future and argument closure per device.
const (
	maxSumAllocs  = 21
	maxAxpyAllocs = 23
)

// Measured 20 and 19 for 8 pages: no chain is allocated per page (before
// the map was a table, a one-address chain per region: 28 and 35), and
// Read picks each page's replica without allocating (before, pickLive's
// slice of live replicas per page: 27). The slack is well under one
// allocation per page, so a buffer that comes back per page trips the
// ceiling.
const (
	maxWriteAllocs = 23
	maxReadAllocs  = 22
)

// Measured 36 and 19 before transfers moved a pencil at a time, and the
// same after: the ceilings are those counts, with no slack. A Write is its
// plan (regions, calls, the ack tally) and a Future and its channel per
// call; its staging buffer comes from the buffer pool. A Read is its plan
// and a Future and its channel per page: the replies a pencil holds live
// in the one per-page slice. Staging that allocated per pencil, per page
// or per replica would trip them.
const (
	maxWriteK2Allocs = 36
	maxReadK2Allocs  = 19
)
