package core

// JacobiOwner is the owner-computes form of the Jacobi solver: the
// sweeps execute inside the storage device processes, on the slabs they
// already hold. Where the client-side Jacobi moves O(N³) elements per
// sweep through the client (halo-expanded slab reads + interior
// writes), this path moves only the O(N²) halo planes between
// neighbouring devices plus one residual scalar per plane — experiment
// E13 measures the difference.
//
// The decomposition unit is the page-plane: all pages sharing the
// first page-grid coordinate. The array's PageMap must be
// plane-aligned — every page of a plane on one device — which the
// striped layout guarantees by construction (plane q → device q mod D;
// with P1 == D that is exactly one RMI per device per sweep). Instead
// of a conformant scratch array, the sweep double-buffers *in place*:
// each device holds a second page bank at index offset PagesPerDevice,
// and successive sweeps alternate read/write banks, so the scratch is
// always co-located with the data and bank turnover costs nothing.
// Devices therefore need 2×PagesPerDevice capacity (create the storage
// with pagesPerDevice ≥ 2×PageMap.PagesPerDevice()).

import (
	"context"
	"fmt"
	"math"

	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// JacobiOwner runs iters weighted-Jacobi sweeps for the 3D Laplace
// problem on a, entirely owner-computes, and returns the final residual
// (max |update|). It is semantically identical to Jacobi — the same
// stencil arithmetic in the same order — differing only in where the
// computation runs and what moves. Devices overlap their halo pulls
// with the interior sweep (posting the reads, computing on the planes
// they already hold, finishing the boundary planes on arrival); the
// overlap changes only the schedule, never a value, so the result is
// bitwise-equal to [JacobiOwnerSync].
func JacobiOwner(ctx context.Context, a *Array, iters int) (float64, error) {
	return jacobiOwner(ctx, a, iters, false)
}

// JacobiOwnerSync is JacobiOwner with the fetch-then-sweep reference
// schedule: every device waits for its halo planes before any stencil
// arithmetic. It exists as the bitwise baseline the overlapped path is
// pinned against (and for measuring what the overlap buys in E13).
func JacobiOwnerSync(ctx context.Context, a *Array, iters int) (float64, error) {
	return jacobiOwner(ctx, a, iters, true)
}

// planeSweep is the owner-computes decomposition of an array: which
// device holds each page-plane, the plane's page indices in (p2, p3)
// row-major order, and the halo schedule the devices are told to run.
type planeSweep struct {
	a        *Array
	ppd      int // bank offset: the scratch bank starts here
	dev      []int
	pages    [][]int
	syncHalo bool
}

// planSweep validates that a can be swept in place — unreplicated,
// plane-aligned, every involved device carrying the second page bank —
// and returns the decomposition.
func planSweep(ctx context.Context, a *Array, syncHalo bool) (*planeSweep, error) {
	N1, N2, N3 := a.Dims()
	if N1 < 3 || N2 < 3 || N3 < 3 {
		return nil, fmt.Errorf("core: Jacobi needs at least 3 points per axis, have %dx%dx%d", N1, N2, N3)
	}
	P1, P2, P3 := a.g[0], a.g[1], a.g[2]
	pm := a.Map()
	if replicaCount(pm) > 1 {
		// The plane-sweep engine writes bank pages directly on the
		// devices, bypassing the replica write fan-out — it would leave
		// replicas stale. Run it on an unreplicated array (or after
		// stripping replication) instead.
		return nil, fmt.Errorf("core: JacobiOwner does not support replicated maps (%q) — sweep an unreplicated array", pm.Name())
	}
	s := &planeSweep{a: a, ppd: pm.PagesPerDevice(), dev: make([]int, P1), pages: make([][]int, P1), syncHalo: syncHalo}

	// Plane ownership: every page of plane q must live on one device.
	for q := 0; q < P1; q++ {
		pages := make([]int, P2*P3)
		dev := pm.Locate(q, 0, 0).Device
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				addr := pm.Locate(q, p2, p3)
				if addr.Device != dev {
					return nil, fmt.Errorf("core: JacobiOwner needs a plane-aligned layout (every page of page-plane %d on one device; %q splits it) — use the striped map", q, pm.Name())
				}
				pages[p2*P3+p3] = addr.Index
			}
		}
		s.dev[q] = dev
		s.pages[q] = pages
	}
	// Capacity: every involved device carries the second page bank.
	checked := make(map[int]bool)
	for _, d := range s.dev {
		if checked[d] {
			continue
		}
		checked[d] = true
		have, err := a.storage.Device(d).NumPages(ctx)
		if err != nil {
			return nil, err
		}
		if have < 2*s.ppd {
			return nil, fmt.Errorf("core: JacobiOwner needs a scratch page bank: device %d holds %d pages, want 2x%d — create the storage with pagesPerDevice >= %d", d, have, s.ppd, 2*s.ppd)
		}
	}
	return s, nil
}

// args describes plane q's sweep from bank srcOff into bank dstOff.
func (s *planeSweep) args(q, srcOff, dstOff int) pagedev.JacobiPlaneArgs {
	a := s.a
	args := pagedev.JacobiPlaneArgs{
		SrcOff: srcOff, DstOff: dstOff,
		QBase: q * a.p[0],
		N1:    a.n[0], N2: a.n[1], N3: a.n[2],
		P2: a.g[1], P3: a.g[2],
		SyncHalo: s.syncHalo,
		Pages:    s.pages[q],
	}
	if q > 0 {
		args.Lo = &pagedev.JacobiHalo{Ref: a.storage.Device(s.dev[q-1]).Ref(), Pages: s.pages[q-1]}
	}
	if q < len(s.dev)-1 {
		args.Hi = &pagedev.JacobiHalo{Ref: a.storage.Device(s.dev[q+1]).Ref(), Pages: s.pages[q+1]}
	}
	return args
}

func jacobiOwner(ctx context.Context, a *Array, iters int, syncHalo bool) (float64, error) {
	s, err := planSweep(ctx, a, syncHalo)
	if err != nil {
		return 0, err
	}
	srcOff, dstOff := 0, s.ppd
	var residual float64
	for it := 0; it < iters; it++ {
		// One sweep: one jacobiPlane call per page-plane through the split
		// loop. All planes read bank srcOff (which nothing writes this
		// sweep) and write disjoint pages of bank dstOff, so the fan-out is
		// free of ordering constraints; halo pulls are served by the
		// neighbours' concurrent readSubBatch even mid-sweep. Settling the
		// whole loop before swapping banks is the inter-sweep barrier.
		residual = 0
		err := rmi.SplitLoop(ctx, len(s.dev), a.inFlight(),
			func(q int) *rmi.Future {
				return a.storage.Device(s.dev[q]).JacobiPlaneAsync(ctx, s.args(q, srcOff, dstOff))
			},
			func(_ int, f *rmi.Future) error {
				r, err := pagedev.DecodeResidual(ctx, f)
				residual = math.Max(residual, r)
				return err
			})
		if err != nil {
			return 0, err
		}
		srcOff, dstOff = dstOff, srcOff
	}

	// After an odd sweep count the iterate sits in the scratch bank: move
	// it home, each device copying from itself (no data on the wire).
	if srcOff != 0 {
		var home []pageCopy
		for q, d := range s.dev {
			for _, idx := range s.pages[q] {
				home = append(home, pageCopy{PageAddress{Device: d, Index: idx}, PageAddress{Device: d, Index: idx + s.ppd}})
			}
		}
		if err := a.copyPages(ctx, home); err != nil {
			return 0, err
		}
	}
	return residual, nil
}
