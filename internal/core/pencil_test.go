package core_test

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/rmi"
	"oopp/internal/transport"
)

// pencilDomains are the domains the pencil tests move through a 48³ array
// of 16³ pages: boxes that cut pages on every face (offsets 1..15 along
// each axis), one-element-thin slabs across each axis, a single page and
// the whole array.
func pencilDomains() []core.Domain {
	const N, n = 48, 16
	var doms []core.Domain
	for o := 1; o < n; o++ {
		lo := [3]int{o, o*7%(n-1) + 1, o*11%(n-1) + 1}
		hi := [3]int{N - (n - o), N - lo[2], N - lo[1]}
		doms = append(doms, core.NewDomain(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]))
	}
	doms = append(doms,
		core.NewDomain(17, 18, 0, N, 0, N), // thin across axis 0
		core.NewDomain(0, N, 31, 32, 0, N), // thin across axis 1
		core.NewDomain(0, N, 0, N, 16, 17), // thin across axis 2: one column of pages
		core.NewDomain(3, 40, 5, 6, 7, 8),  // thin across axes 1 and 2
		core.NewDomain(16, 32, 16, 32, 16, 32),
		core.Box(N, N, N),
	)
	return doms
}

// TestPencilTransfers writes and reads back every pencil domain, with one
// replica and with two, at the default window and at windows that cut a
// row of pages into shorter pencils, and holds the array to a plain
// reference array after every step: the domain reads back exactly, and
// nothing outside it moved.
func TestPencilTransfers(t *testing.T) {
	for _, k := range []int{1, 2} {
		for _, window := range []int{core.DefaultWindow, 2, 1} {
			t.Run(fmt.Sprintf("k=%d/window=%d", k, window), func(t *testing.T) {
				pencilTransfers(t, nil, k, window)
			})
		}
	}
}

// TestPencilTransfersTCP is TestPencilTransfers over TCP, the transport
// that writes a whole page's values from the staging buffer they were
// packed in: a page write that had not left when its call was issued would
// send values of the next pencil packed there since, and read back wrong.
func TestPencilTransfersTCP(t *testing.T) {
	for _, k := range []int{1, 2} {
		for _, window := range []int{core.DefaultWindow, 2} {
			t.Run(fmt.Sprintf("k=%d/window=%d", k, window), func(t *testing.T) {
				pencilTransfers(t, transport.TCP{}, k, window)
			})
		}
	}
}

// pencilTransfers moves every pencil domain through a 48³ array of 16³
// pages on three machines joined by tr (nil: in-proc), k replicas of each
// page, at the given window, and holds it to a reference array after every
// step.
func pencilTransfers(t *testing.T, tr transport.Transport, k, window int) {
	const N, n = 48, 16
	_, arr, done := buildReplicatedOn(t, tr, "roundrobin", 3, k, N, N, N, n, n, n, 0)
	defer done()
	arr.SetWindow(window)
	ref := newShadow(N, N, N)
	whole := make([]float64, N*N*N)
	for d, dom := range pencilDomains() {
		src := make([]float64, dom.Size())
		for i := range src {
			src[i] = float64(d*1_000_000+i) + 0.25
		}
		if err := arr.Write(bg, src, dom); err != nil {
			t.Fatalf("domain %d %v: write: %v", d, dom, err)
		}
		ref.write(src, dom)
		got := make([]float64, dom.Size())
		if err := arr.Read(bg, got, dom); err != nil {
			t.Fatalf("domain %d %v: read: %v", d, dom, err)
		}
		for i, v := range src {
			if got[i] != v {
				t.Fatalf("domain %d %v: element %d reads %v, wrote %v", d, dom, i, got[i], v)
			}
		}
		if err := arr.Read(bg, whole, arr.Bounds()); err != nil {
			t.Fatalf("domain %d %v: whole read: %v", d, dom, err)
		}
		for i, v := range ref.data {
			if whole[i] != v {
				t.Fatalf("after domain %d %v: array element %d is %v, reference %v", d, dom, i, whole[i], v)
			}
		}
	}
}

// TestPencilLongerThanStaging: a row of three 64³ pages (2 MiB each) is
// more than a Write stages at once, so it goes out as shorter pencils,
// and reads back exactly.
func TestPencilLongerThanStaging(t *testing.T) {
	const n = 64
	arr, done := buildArray(t, "roundrobin", 3, n, n, 3*n, n, n, n)
	defer done()
	for _, dom := range []core.Domain{arr.Bounds(), core.NewDomain(1, n-1, 2, n, 3, 3*n-1)} {
		src := make([]float64, dom.Size())
		for i := range src {
			src[i] = float64(i) - 0.5
		}
		if err := arr.Write(bg, src, dom); err != nil {
			t.Fatalf("%v: write: %v", dom, err)
		}
		got := make([]float64, dom.Size())
		if err := arr.Read(bg, got, dom); err != nil {
			t.Fatalf("%v: read: %v", dom, err)
		}
		for i, v := range src {
			if got[i] != v {
				t.Fatalf("%v: element %d reads %v, wrote %v", dom, i, got[i], v)
			}
		}
	}
}

// pencilRow is a 16×16×48 array in 16³ pages, written with src: one
// pencil of three pages, round-robin over three machines, k replicas of
// each. middle is the device of the middle page's first replica.
func pencilRow(t *testing.T, k int) (cl *cluster.Cluster, arr *core.Array, done func(), src []float64, middle int) {
	t.Helper()
	cl, arr, done = buildReplicated(t, "roundrobin", 3, k, 16, 16, 48, 16, 16, 16, 0)
	src = make([]float64, 16*16*48)
	for i := range src {
		src[i] = float64(i%97) + 0.5
	}
	if err := arr.Write(bg, src, arr.Bounds()); err != nil {
		done()
		t.Fatalf("write: %v", err)
	}
	return cl, arr, done, src, arr.Map().LocateAll(0, 0, 1)[0].Device
}

// TestPencilReadAroundDownMachine: the middle page of a k=2 pencil has
// its first replica on a machine marked down; the read takes that page
// from its other replica and lands exactly, as do its neighbours.
func TestPencilReadAroundDownMachine(t *testing.T) {
	cl, arr, done, src, middle := pencilRow(t, 2)
	defer done()
	hb := cl.Client().StartHeartbeat(rmi.HeartbeatConfig{Interval: 20 * time.Millisecond, Misses: 3})
	defer hb.Stop()
	killMachine(t, cl, arr.Storage().MachineOf(middle))
	for r := 0; r < 4; r++ { // the replica rotation starts anywhere
		got := make([]float64, len(src))
		if err := arr.Read(bg, got, arr.Bounds()); err != nil {
			t.Fatalf("read %d with a replica down: %v", r, err)
		}
		for i, v := range src {
			if got[i] != v {
				t.Fatalf("read %d: element %d reads %v, wrote %v", r, i, got[i], v)
			}
		}
	}
}

// TestPencilReadPageFailsAlone: the middle page's device of a k=1 pencil
// is gone, so its read fails hard. Read returns that error; the page's
// elements of the destination stay as they were, and the two pages beside
// it in the pencil still land.
func TestPencilReadPageFailsAlone(t *testing.T) {
	_, arr, done, src, middle := pencilRow(t, 1)
	defer done()
	if err := arr.Storage().Device(middle).Close(bg); err != nil {
		t.Fatalf("close device: %v", err)
	}
	dom := core.NewDomain(1, 15, 2, 16, 3, 45) // cuts all three pages
	got := make([]float64, dom.Size())
	for i := range got {
		got[i] = math.Inf(-1)
	}
	err := arr.Read(bg, got, dom)
	if err == nil || errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("read over a closed device: got %v, want its hard error", err)
	}
	d2, d3 := dom.Hi[1]-dom.Lo[1], dom.Hi[2]-dom.Lo[2]
	for i := dom.Lo[0]; i < dom.Hi[0]; i++ {
		for j := dom.Lo[1]; j < dom.Hi[1]; j++ {
			for k := dom.Lo[2]; k < dom.Hi[2]; k++ {
				v := got[((i-dom.Lo[0])*d2+j-dom.Lo[1])*d3+k-dom.Lo[2]]
				want := src[(i*16+j)*48+k]
				if k >= 16 && k < 32 {
					want = math.Inf(-1) // the failed page's: untouched
				}
				if v != want {
					t.Fatalf("element (%d,%d,%d) = %v, want %v", i, j, k, v, want)
				}
			}
		}
	}
}
