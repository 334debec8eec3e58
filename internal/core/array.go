package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// Array is the paper's §5 Array class: a large three-dimensional array of
// float64s on the domain [0,N1)×[0,N2)×[0,N3), broken into n1×n2×n3 pages
// stored across the device processes of a BlockStorage according to a
// PageMap.
//
// An Array value is a *client* for the distributed data object — "a
// client process for performing computations on a small subdomain of the
// array data" (§5). Multiple Array values over the same storage and map
// may run in parallel (one per goroutine or per machine); experiment E8
// measures that scaling.
//
// Read and Write move element data between the client and the devices;
// like every other element move of this client (re-seeding, migration
// copies, checkpoints, owner-computes sweeps) they are one
// rmi.SplitLoop at the window inFlight reports. Every compute operation
// (Fill, Scale, Sum, MinMax, Norm2, Dot, Axpy, and the Apply/Reduce
// escape hatch for user kernels) is owner-computes: it executes inside
// the device processes that hold the pages, one batched RMI per involved
// device — see kernel.go and the package docs.
// All mutating operations, partial pages included, run inside the device
// process's serial mailbox, so concurrent clients updating disjoint
// element regions are safe even when those regions share pages (the
// Jacobi solver depends on this).
type Array struct {
	n [3]int // array dims N1,N2,N3
	p [3]int // page dims n1,n2,n3
	g [3]int // page grid dims P1,P2,P3

	storage *BlockStorage

	// pm is guarded by pmMu: Failover and MigratePages re-mint the map
	// while other goroutines operate on this Array value. Every operation
	// snapshots the map once (Map) and works against that snapshot.
	// flipped is closed, and replaced, by every setMap: what a parked
	// operation waits on (waitMapFlip).
	pmMu    sync.RWMutex
	pm      PageMap
	flipped chan struct{}

	// degraded counts replica writes tolerated against down machines —
	// see DegradedWrites in replica.go.
	degraded atomic.Int64

	// rr rotates read traffic across a page's live replicas (pickLive):
	// replication doubles as read scaling, so a hot page's reads spread
	// over its whole chain instead of hammering the chain primary.
	rr atomic.Uint64

	window int
}

// DefaultWindow is the default bound on outstanding pipelined requests —
// the same window discipline the collective fan-out engine uses.
const DefaultWindow = rmi.DefaultWindow

// NewArray validates geometry and capacity and returns an Array client.
// Array dims must be multiples of the page dims, the map must be built
// for the array's page grid and storage's device count, and every device
// must have the page dimensions and at least PageMap.PagesPerDevice pages.
func NewArray(ctx context.Context, storage *BlockStorage, pm PageMap, N1, N2, N3, n1, n2, n3 int) (*Array, error) {
	if N1 <= 0 || N2 <= 0 || N3 <= 0 || n1 <= 0 || n2 <= 0 || n3 <= 0 {
		return nil, fmt.Errorf("core: invalid array geometry %dx%dx%d pages %dx%dx%d", N1, N2, N3, n1, n2, n3)
	}
	if N1%n1 != 0 || N2%n2 != 0 || N3%n3 != 0 {
		return nil, fmt.Errorf("core: array dims %dx%dx%d not divisible by page dims %dx%dx%d", N1, N2, N3, n1, n2, n3)
	}
	if g := (grid{N1 / n1, N2 / n2, N3 / n3, storage.Len()}); pm.grid != g {
		return nil, fmt.Errorf("core: page map grid %+v does not fit the array's %+v", pm.grid, g)
	}
	need := pm.PagesPerDevice()
	for i := 0; i < storage.Len(); i++ {
		dev := storage.Device(i)
		d1, d2, d3 := dev.Dims()
		if d1 != n1 || d2 != n2 || d3 != n3 {
			return nil, fmt.Errorf("core: device %d pages are %dx%dx%d, array wants %dx%dx%d", i, d1, d2, d3, n1, n2, n3)
		}
		cap, err := dev.NumPages(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: device %d: %w", i, err)
		}
		if cap < need {
			return nil, fmt.Errorf("core: device %d holds %d pages, page map needs %d", i, cap, need)
		}
	}
	return &Array{
		n:       [3]int{N1, N2, N3},
		p:       [3]int{n1, n2, n3},
		g:       [3]int{N1 / n1, N2 / n2, N3 / n3},
		storage: storage,
		pm:      pm,
		flipped: make(chan struct{}),
		window:  DefaultWindow,
	}, nil
}

// Dims returns the array extents.
func (a *Array) Dims() (N1, N2, N3 int) { return a.n[0], a.n[1], a.n[2] }

// GridDims returns the page-grid extents.
func (a *Array) GridDims() (P1, P2, P3 int) { return a.g[0], a.g[1], a.g[2] }

// Bounds returns the full domain of the array.
func (a *Array) Bounds() Domain { return Box(a.n[0], a.n[1], a.n[2]) }

// Storage returns the underlying block storage.
func (a *Array) Storage() *BlockStorage { return a.storage }

// Map returns the page map (the current one — Failover re-mints it).
func (a *Array) Map() PageMap {
	a.pmMu.RLock()
	defer a.pmMu.RUnlock()
	return a.pm
}

// setMap atomically replaces the page map (the final step of Failover
// and MigratePages) and wakes every operation parked in waitMapFlip.
func (a *Array) setMap(pm PageMap) {
	a.pmMu.Lock()
	a.pm = pm
	close(a.flipped)
	a.flipped = make(chan struct{})
	a.pmMu.Unlock()
}

// SetWindow bounds the number of outstanding pipelined requests
// (and therefore client buffering). Values < 1 mean DefaultWindow (the
// split loop's rule). Window 1 turns the §4 split loop off: every page
// operation is a synchronous §2 round trip — the configuration the
// experiments use as the sequential baseline.
func (a *Array) SetWindow(w int) { a.window = w }

// inFlight is the window every transfer and kernel fan-out of this
// client hands to rmi.SplitLoop — the one place the pipelining
// configuration is read.
func (a *Array) inFlight() int { return a.window }

// region is one page overlapped by a domain operation.
type region struct {
	chain []PageAddress // the page's replica chain, primary first (one address on plain maps)
	box   Domain        // the page's global element box
	isect Domain        // overlap with the operation's domain
	full  bool          // the whole page is covered
}

// regionsOf enumerates the pages overlapping dom with their replica
// chains under the map snapshot pm, so one operation never mixes pre-
// and post-flip layouts. Page iteration order is row-major in page
// coordinates, which under a round-robin map alternates devices —
// maximizing overlap.
func (a *Array) regionsOf(pm PageMap, dom Domain) []region {
	lo1, hi1 := dom.Lo[0]/a.p[0], (dom.Hi[0]-1)/a.p[0]
	lo2, hi2 := dom.Lo[1]/a.p[1], (dom.Hi[1]-1)/a.p[1]
	lo3, hi3 := dom.Lo[2]/a.p[2], (dom.Hi[2]-1)/a.p[2]
	out := make([]region, 0, (hi1-lo1+1)*(hi2-lo2+1)*(hi3-lo3+1))
	for p1 := lo1; p1 <= hi1; p1++ {
		for p2 := lo2; p2 <= hi2; p2++ {
			for p3 := lo3; p3 <= hi3; p3++ {
				box := NewDomain(
					p1*a.p[0], (p1+1)*a.p[0],
					p2*a.p[1], (p2+1)*a.p[1],
					p3*a.p[2], (p3+1)*a.p[2],
				)
				isect := dom.Intersect(box)
				if isect.Empty() {
					continue
				}
				out = append(out, region{
					chain: pm.chain(p1, p2, p3),
					box:   box,
					isect: isect,
					full:  isect.Equal(box),
				})
			}
		}
	}
	return out
}

func (a *Array) checkDomain(dom Domain) error {
	if err := dom.Validate(); err != nil {
		return err
	}
	if dom.Empty() {
		return nil
	}
	if !dom.Within(a.Bounds()) {
		return fmt.Errorf("core: domain %v outside array %v", dom, a.Bounds())
	}
	return nil
}

// blockOf names, for the device stubs, the part isect of a dom-shaped
// row-major subarray: a transfer gathers a page's rows from there, or
// scatters them there, with no page-sized buffer in between.
func blockOf(subarray []float64, dom, isect Domain) pagedev.Block {
	return pagedev.Block{Data: subarray, N2: dom.Hi[1] - dom.Lo[1], N3: dom.Hi[2] - dom.Lo[2], Box: subBoxIn(isect, dom)}
}

// subBoxIn gives the box isect in coordinates local to outer.
func subBoxIn(isect, outer Domain) pagedev.SubBox {
	var b pagedev.SubBox
	for x := 0; x < 3; x++ {
		b.Lo[x] = isect.Lo[x] - outer.Lo[x]
		b.Dim[x] = isect.Hi[x] - isect.Lo[x]
	}
	return b
}

// Read gathers the subdomain dom into subarray (row-major, dom.Dims()
// shaped) — the paper's Array::read. With pipelining on, page reads from
// distinct devices overlap (§4); the PageMap decides how many devices
// that engages (§5). Under a replicated map each page is read from a
// *live* replica (the failure detector's verdicts route around
// down machines; a call-time machine-down failure falls back to the
// next replica), so replication doubles as read scaling. Each page's
// rows go from its reply frame to their place in subarray in one copy.
func (a *Array) Read(ctx context.Context, subarray []float64, dom Domain) error {
	if err := a.checkDomain(dom); err != nil {
		return err
	}
	if len(subarray) != dom.Size() {
		return fmt.Errorf("core: subarray has %d elements, domain %v has %d", len(subarray), dom, dom.Size())
	}
	regs := a.regionsOf(a.Map(), dom)
	picked := make([]PageAddress, len(regs))
	return rmi.SplitLoop(ctx, len(regs), a.inFlight(),
		func(i int) *rmi.Future {
			picked[i], _ = a.pickLive(regs[i].chain, nil)
			return a.storage.Device(picked[i].Device).ReadPageAsync(ctx, picked[i].Index)
		},
		func(i int, f *rmi.Future) error {
			r := regs[i]
			box, dst := subBoxFor(r), blockOf(subarray, dom, r.isect)
			err := a.storage.Device(picked[i].Device).ScatterPage(ctx, f, box, dst)
			if err != nil {
				// A replica dying between issue and decode: retry the page
				// synchronously on its remaining replicas before giving up.
				err = a.retryRead(ctx, r, picked[i], box, dst, err)
			}
			return err
		})
}

// retryRead walks the remaining replicas of r after a read from the
// failed address errored: only typed machine-down failures are
// retried; any other error (or running out of replicas) returns the
// original error.
func (a *Array) retryRead(ctx context.Context, r region, failed PageAddress, box pagedev.SubBox, dst pagedev.Block, err error) error {
	if !errors.Is(err, rmi.ErrMachineDown) {
		return err
	}
	for _, addr := range r.chain {
		if addr == failed || !a.machineUp(addr.Device) {
			continue
		}
		dev := a.storage.Device(addr.Device)
		if rerr := dev.ScatterPage(ctx, dev.ReadPageAsync(ctx, addr.Index), box, dst); rerr == nil {
			return nil
		} else if !errors.Is(rerr, rmi.ErrMachineDown) {
			return rerr
		}
	}
	return err
}

// subBoxFor converts a region's intersection into the device-local
// sub-box coordinates used by the sub-page methods.
func subBoxFor(r region) pagedev.SubBox { return subBoxIn(r.isect, r.box) }

// Write scatters subarray into the subdomain dom — the paper's
// Array::write. Fully covered pages are written whole; partially covered
// pages go through the device's atomic sub-page write. Both paths
// pipeline.
//
// Under a replicated map every page write fans out to the whole replica
// chain through the same split loop, with primary-ack semantics
// (ackTally): the write succeeds iff at least one replica of every
// touched page acknowledges; replicas failing with the typed
// machine-down error are tolerated (counted in DegradedWrites), any
// other failure fails the write.
//
// A write racing a live migration of this Array value never fails from
// it: pages mid-migration refuse writes typed (rmi.ErrFenced), and
// Write parks until the map flips, then replays against the fresh
// layout — writes are pure overwrites, so replaying regions that
// already landed is harmless.
func (a *Array) Write(ctx context.Context, subarray []float64, dom Domain) error {
	if err := a.checkDomain(dom); err != nil {
		return err
	}
	if len(subarray) != dom.Size() {
		return fmt.Errorf("core: subarray has %d elements, domain %v has %d", len(subarray), dom, dom.Size())
	}
	var err error
	for attempt := 0; attempt <= maxFenceRetries; attempt++ {
		pm := a.Map()
		err = a.writeWith(ctx, pm, subarray, dom)
		if err == nil || !errors.Is(err, rmi.ErrFenced) {
			return err
		}
		if _, werr := a.waitMapFlip(ctx, pm); werr != nil {
			return err
		}
	}
	return err
}

// writeWith is one Write attempt against an explicit map snapshot: one
// call per (region, replica) pair, in region order, settled into the
// primary-ack tally. Each call gathers its region's rows from subarray
// straight into its own request frame — one pass over the values per
// replica, and nothing held between calls.
func (a *Array) writeWith(ctx context.Context, pm PageMap, subarray []float64, dom Domain) error {
	regs := a.regionsOf(pm, dom)
	type replicaWrite struct{ reg, pos int }
	calls := make([]replicaWrite, 0, len(regs)*pm.Replicas())
	for ri, r := range regs {
		for pos := range r.chain {
			calls = append(calls, replicaWrite{ri, pos})
		}
	}
	t := a.newAckTally(regs)
	return rmi.SplitLoop(ctx, len(calls), a.inFlight(),
		func(i int) *rmi.Future {
			r := regs[calls[i].reg]
			addr := r.chain[calls[i].pos]
			dev, src := a.storage.Device(addr.Device), blockOf(subarray, dom, r.isect)
			if r.full {
				return dev.WritePageAsync(ctx, addr.Index, src)
			}
			// Partial page: atomic sub-page write on the device (only the
			// region travels, and concurrent clients can share the page).
			return dev.WriteSubAsync(ctx, addr.Index, subBoxFor(r), src)
		},
		func(i int, f *rmi.Future) error { return t.record(calls[i].reg, f.Err(ctx)) })
}

// Sum reduces the subdomain dom — the paper's Array::sum. Every page is
// summed *on the device that owns it* ("the partial sums are computed by
// the data server processes and combined together by the Array client",
// §5): one kernel call per involved device carries the batch of
// regions, and only a (count, partial-sum) pair returns per device —
// partial pages included, via the device-side sub-box fold.
func (a *Array) Sum(ctx context.Context, dom Domain) (float64, error) {
	acc, _, err := a.Reduce(ctx, dom, kernel.Sum)
	if err != nil {
		return 0, err
	}
	return acc[0], nil
}

// Fill sets every element of dom to v — one kernel batch per
// involved device, no element data on the wire. Partial pages fill
// atomically inside their device's serial mailbox.
func (a *Array) Fill(ctx context.Context, dom Domain, v float64) error {
	return a.Apply(ctx, dom, kernel.Fill, v)
}

// Scale multiplies every element of dom by alpha, on the devices that
// own the pages.
func (a *Array) Scale(ctx context.Context, dom Domain, alpha float64) error {
	return a.Apply(ctx, dom, kernel.Scale, alpha)
}
