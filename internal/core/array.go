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
// Read and Write move element data between the client and the devices.
// Every compute operation (Fill, Scale, Sum, MinMax, Norm2, Dot, Axpy,
// and the Apply/Reduce escape hatch for user kernels) is owner-computes:
// it executes inside the device processes that hold the pages, one
// batched RMI per involved device — see kernel.go and the package docs.
// All mutating operations, partial pages included, run inside the device
// process's serial mailbox, so concurrent clients updating disjoint
// element regions are safe even when those regions share pages (the
// Jacobi solver depends on this).
type Array struct {
	n [3]int // array dims N1,N2,N3
	p [3]int // page dims n1,n2,n3
	g [3]int // page grid dims P1,P2,P3

	storage *BlockStorage

	// pm is guarded by pmMu: Failover re-mints the map while other
	// goroutines may hold Array clients over the same storage. Every
	// operation snapshots the map once (Map) and works against that
	// snapshot.
	pmMu sync.RWMutex
	pm   PageMap

	// degraded counts replica writes tolerated against down machines —
	// see DegradedWrites in replica.go.
	degraded atomic.Int64

	// rr rotates read traffic across a page's live replicas (pickLive):
	// replication doubles as read scaling, so a hot page's reads spread
	// over its whole chain instead of hammering the chain primary.
	rr atomic.Uint64

	pipeline bool
	window   int
}

// DefaultWindow is the default bound on outstanding pipelined requests —
// the same window discipline the collective fan-out engine uses.
const DefaultWindow = rmi.DefaultWindow

// NewArray validates geometry and capacity and returns an Array client.
// Array dims must be multiples of the page dims; every device must have
// the page dimensions and at least PageMap.PagesPerDevice pages.
func NewArray(ctx context.Context, storage *BlockStorage, pm PageMap, N1, N2, N3, n1, n2, n3 int) (*Array, error) {
	if N1 <= 0 || N2 <= 0 || N3 <= 0 || n1 <= 0 || n2 <= 0 || n3 <= 0 {
		return nil, fmt.Errorf("core: invalid array geometry %dx%dx%d pages %dx%dx%d", N1, N2, N3, n1, n2, n3)
	}
	if N1%n1 != 0 || N2%n2 != 0 || N3%n3 != 0 {
		return nil, fmt.Errorf("core: array dims %dx%dx%d not divisible by page dims %dx%dx%d", N1, N2, N3, n1, n2, n3)
	}
	if storage.Len() != pm.Devices() {
		return nil, fmt.Errorf("core: page map expects %d devices, storage has %d", pm.Devices(), storage.Len())
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
		n:        [3]int{N1, N2, N3},
		p:        [3]int{n1, n2, n3},
		g:        [3]int{N1 / n1, N2 / n2, N3 / n3},
		storage:  storage,
		pm:       pm,
		pipeline: true,
		window:   DefaultWindow,
	}, nil
}

// Dims returns the array extents.
func (a *Array) Dims() (N1, N2, N3 int) { return a.n[0], a.n[1], a.n[2] }

// PageDims returns the page extents.
func (a *Array) PageDims() (n1, n2, n3 int) { return a.p[0], a.p[1], a.p[2] }

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

// setMap atomically replaces the page map (Failover's final step).
func (a *Array) setMap(pm PageMap) {
	a.pmMu.Lock()
	a.pm = pm
	a.pmMu.Unlock()
}

// SetPipeline toggles the §4 split-loop pipelining. With it off every
// page operation is a synchronous §2 round trip — the configuration the
// experiments use as the sequential baseline.
func (a *Array) SetPipeline(on bool) { a.pipeline = on }

// SetWindow bounds the number of outstanding pipelined requests
// (and therefore client buffering). Values < 1 reset to DefaultWindow.
func (a *Array) SetWindow(w int) {
	if w < 1 {
		w = DefaultWindow
	}
	a.window = w
}

// region is one page overlapped by a domain operation.
type region struct {
	addr  PageAddress
	addrs []PageAddress // full replica chain (primary first); nil on plain maps
	box   Domain        // the page's global element box
	isect Domain        // overlap with the operation's domain
	full  bool          // the whole page is covered
}

// replicas returns the region's replica chain — addr alone on plain
// maps.
func (r *region) replicas() []PageAddress {
	if r.addrs != nil {
		return r.addrs
	}
	return []PageAddress{r.addr}
}

// regions enumerates the pages overlapping dom, with their physical
// addresses. Page iteration order is row-major in page coordinates, which
// under a round-robin map alternates devices — maximizing overlap.
func (a *Array) regions(dom Domain) []region {
	return a.regionsOf(a.Map(), dom)
}

// regionsOf is regions against an explicit map snapshot, so one
// operation never mixes pre- and post-failover layouts. Under a
// ReplicaMap each region carries its whole replica chain.
func (a *Array) regionsOf(pm PageMap, dom Domain) []region {
	rm, _ := pm.(ReplicaMap)
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
				r := region{
					box:   box,
					isect: isect,
					full:  isect.Equal(box),
				}
				if rm != nil {
					r.addrs = rm.LocateAll(p1, p2, p3)
					r.addr = r.addrs[0]
				} else {
					r.addr = pm.Locate(p1, p2, p3)
				}
				out = append(out, r)
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

// copyRegion moves the isect block between a page buffer and a
// dom-shaped subarray. dir=+1 copies page->sub (read), dir=-1 sub->page
// (write).
func (a *Array) copyRegion(sub []float64, dom Domain, page []float64, r region, toSub bool) {
	d2 := dom.Hi[1] - dom.Lo[1]
	d3 := dom.Hi[2] - dom.Lo[2]
	runLen := r.isect.Hi[2] - r.isect.Lo[2]
	for i := r.isect.Lo[0]; i < r.isect.Hi[0]; i++ {
		li := i - r.box.Lo[0] // local page coord, axis 1
		si := i - dom.Lo[0]   // subarray coord, axis 1
		for j := r.isect.Lo[1]; j < r.isect.Hi[1]; j++ {
			lj := j - r.box.Lo[1]
			sj := j - dom.Lo[1]
			pOff := (li*a.p[1]+lj)*a.p[2] + (r.isect.Lo[2] - r.box.Lo[2])
			sOff := (si*d2+sj)*d3 + (r.isect.Lo[2] - dom.Lo[2])
			if toSub {
				copy(sub[sOff:sOff+runLen], page[pOff:pOff+runLen])
			} else {
				copy(page[pOff:pOff+runLen], sub[sOff:sOff+runLen])
			}
		}
	}
}

// Read gathers the subdomain dom into subarray (row-major, dom.Dims()
// shaped) — the paper's Array::read. With pipelining on, page reads from
// distinct devices overlap (§4); the PageMap decides how many devices
// that engages (§5). Under a replicated map each page is read from its
// first *live* replica (the failure detector's verdicts route around
// down machines; a call-time machine-down failure falls back to the
// next replica), so replication doubles as read scaling.
func (a *Array) Read(ctx context.Context, subarray []float64, dom Domain) error {
	if err := a.checkDomain(dom); err != nil {
		return err
	}
	if len(subarray) != dom.Size() {
		return fmt.Errorf("core: subarray has %d elements, domain %v has %d", len(subarray), dom, dom.Size())
	}
	regs := a.regions(dom)
	scratch := pagedev.NewArrayPage(a.p[0], a.p[1], a.p[2])

	if !a.pipeline {
		for _, r := range regs {
			if err := a.readRegion(ctx, r, scratch, nil); err != nil {
				return err
			}
			a.copyRegion(subarray, dom, scratch.Data, r, true)
		}
		return nil
	}

	futs := make([]*rmi.Future, len(regs))
	picked := make([]PageAddress, len(regs))
	issued := 0
	for done := 0; done < len(regs); done++ {
		for issued < len(regs) && issued < done+a.window {
			r := regs[issued]
			addr, ok := a.pickLive(r.replicas(), nil)
			if !ok {
				addr = r.addr
			}
			picked[issued] = addr
			futs[issued] = a.storage.Device(addr.Device).ReadPageAsync(ctx, addr.Index)
			issued++
		}
		if err := pagedev.DecodeArrayPage(ctx, futs[done], scratch); err != nil {
			// A replica dying between issue and decode: retry the page
			// synchronously on its remaining replicas before giving up.
			err = a.retryRead(ctx, regs[done], picked[done], scratch, err)
			if err != nil {
				// Drain remaining futures before returning.
				for i := done + 1; i < issued; i++ {
					_ = futs[i].Err(ctx)
				}
				return err
			}
		}
		a.copyRegion(subarray, dom, scratch.Data, regs[done], true)
		futs[done] = nil
	}
	return nil
}

// readRegion reads one page region from the first live replica,
// synchronously, falling back across the chain on typed machine-down
// failures.
func (a *Array) readRegion(ctx context.Context, r region, page *pagedev.ArrayPage, exclude map[int]bool) error {
	addr, ok := a.pickLive(r.replicas(), exclude)
	if !ok {
		addr = r.addr
	}
	err := a.storage.Device(addr.Device).ReadPage(ctx, page, addr.Index)
	if err == nil {
		return nil
	}
	return a.retryRead(ctx, r, addr, page, err)
}

// retryRead walks the remaining replicas of r after a read from the
// failed address errored: only typed machine-down failures are
// retried; any other error (or running out of replicas) returns the
// original error.
func (a *Array) retryRead(ctx context.Context, r region, failed PageAddress, page *pagedev.ArrayPage, err error) error {
	if !errors.Is(err, rmi.ErrMachineDown) {
		return err
	}
	for _, addr := range r.replicas() {
		if addr == failed || !a.machineUp(addr.Device) {
			continue
		}
		if rerr := a.storage.Device(addr.Device).ReadPage(ctx, page, addr.Index); rerr == nil {
			return nil
		} else if !errors.Is(rerr, rmi.ErrMachineDown) {
			return rerr
		}
	}
	return err
}

// subBoxFor converts a region's intersection into the device-local
// sub-box coordinates used by the sub-page methods.
func subBoxFor(r region) pagedev.SubBox {
	var b pagedev.SubBox
	for x := 0; x < 3; x++ {
		b.Lo[x] = r.isect.Lo[x] - r.box.Lo[x]
		b.Dim[x] = r.isect.Hi[x] - r.isect.Lo[x]
	}
	return b
}

// extractRegion gathers the region's values out of a dom-shaped subarray
// into a row-packed buffer (the writeSub wire layout).
func (a *Array) extractRegion(sub []float64, dom Domain, r region) []float64 {
	d2 := dom.Hi[1] - dom.Lo[1]
	d3 := dom.Hi[2] - dom.Lo[2]
	runLen := r.isect.Hi[2] - r.isect.Lo[2]
	out := make([]float64, r.isect.Size())
	pos := 0
	for i := r.isect.Lo[0]; i < r.isect.Hi[0]; i++ {
		si := i - dom.Lo[0]
		for j := r.isect.Lo[1]; j < r.isect.Hi[1]; j++ {
			sj := j - dom.Lo[1]
			sOff := (si*d2+sj)*d3 + (r.isect.Lo[2] - dom.Lo[2])
			copy(out[pos:pos+runLen], sub[sOff:sOff+runLen])
			pos += runLen
		}
	}
	return out
}

// Write scatters subarray into the subdomain dom — the paper's
// Array::write. Fully covered pages are written whole; partially covered
// pages go through the device's atomic sub-page write. Both paths
// pipeline.
//
// Under a replicated map every page write fans out to the whole replica
// chain through the same pipeline, with primary-ack semantics: the
// write succeeds iff at least one replica of every touched page
// acknowledges; replicas failing with the typed machine-down error are
// tolerated (counted in DegradedWrites), any other failure fails the
// write.
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

// writeWith is one Write attempt against an explicit map snapshot.
func (a *Array) writeWith(ctx context.Context, pm PageMap, subarray []float64, dom Domain) error {
	regs := a.regionsOf(pm, dom)
	scratch := pagedev.NewArrayPage(a.p[0], a.p[1], a.p[2])

	// Each pending group is one region's replica fan-out; a group is
	// acked when at least one of its futures succeeds and no future
	// failed with anything but the typed machine-down error.
	type group struct {
		futs []*rmi.Future
	}
	var pending []group
	outstanding := 0
	settle := func() error {
		var hard error
		for _, g := range pending {
			acked := 0
			var down error
			for _, fut := range g.futs {
				switch err := fut.Err(ctx); {
				case err == nil:
					acked++
				case errors.Is(err, rmi.ErrMachineDown):
					down = err
				default:
					if hard == nil {
						hard = err
					}
				}
			}
			if hard == nil && acked == 0 && down != nil {
				hard = down
			}
			if down != nil && acked > 0 {
				a.degraded.Add(int64(len(g.futs) - acked))
			}
		}
		pending = pending[:0]
		outstanding = 0
		return hard
	}
	push := func(futs []*rmi.Future) error {
		pending = append(pending, group{futs: futs})
		outstanding += len(futs)
		if outstanding >= a.window {
			return settle()
		}
		return nil
	}

	for _, r := range regs {
		chain := r.replicas()
		if r.full {
			a.copyRegion(subarray, dom, scratch.Data, r, false)
			if a.pipeline {
				futs := make([]*rmi.Future, len(chain))
				for i, addr := range chain {
					futs[i] = a.storage.Device(addr.Device).WritePageAsync(ctx, scratch, addr.Index)
				}
				if err := push(futs); err != nil {
					return err
				}
			} else if err := a.writeRegionSync(ctx, chain, func(addr PageAddress) error {
				return a.storage.Device(addr.Device).WritePage(ctx, scratch, addr.Index)
			}); err != nil {
				return err
			}
			continue
		}
		// Partial page: atomic sub-page write on the device (only the
		// region travels, and concurrent clients can share the page).
		vals := a.extractRegion(subarray, dom, r)
		box := subBoxFor(r)
		if a.pipeline {
			futs := make([]*rmi.Future, len(chain))
			for i, addr := range chain {
				futs[i] = a.storage.Device(addr.Device).WriteSubAsync(ctx, addr.Index, box, vals)
			}
			if err := push(futs); err != nil {
				return err
			}
		} else if err := a.writeRegionSync(ctx, chain, func(addr PageAddress) error {
			return a.storage.Device(addr.Device).WriteSub(ctx, addr.Index, box, vals)
		}); err != nil {
			return err
		}
	}
	return settle()
}

// writeRegionSync applies one region's write to every replica
// synchronously, with the same primary-ack classification as the
// pipelined path.
func (a *Array) writeRegionSync(ctx context.Context, chain []PageAddress, write func(PageAddress) error) error {
	acked := 0
	var down, hard error
	for _, addr := range chain {
		switch err := write(addr); {
		case err == nil:
			acked++
		case errors.Is(err, rmi.ErrMachineDown):
			down = err
		default:
			if hard == nil {
				hard = err
			}
		}
	}
	if hard != nil {
		return hard
	}
	if acked == 0 && down != nil {
		return down
	}
	if down != nil {
		a.degraded.Add(int64(len(chain) - acked))
	}
	return nil
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

// MinMax returns the extrema over dom, computed where the pages live
// (one device-side minmax reduction per involved device). An empty
// domain yields the reduction identity (+Inf, -Inf); devices fold no
// empty regions, so the identity never contaminates a non-empty result.
func (a *Array) MinMax(ctx context.Context, dom Domain) (lo, hi float64, err error) {
	acc, _, err := a.Reduce(ctx, dom, kernel.MinMax)
	if err != nil {
		return 0, 0, err
	}
	return acc[0], acc[1], nil
}
