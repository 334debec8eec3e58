package pagedev

// The owner-computes Jacobi sweep: the structured-grid workload
// executed inside the storage devices that own the slabs. Each call
// sweeps one page-plane (all pages sharing the first page-grid
// coordinate, which a plane-aligned PageMap stores on one device): the
// device posts its halo pulls (served by the neighbours' concurrent
// readSubBatch, so neighbours mid-sweep still answer), assembles its
// slab and sweeps the interior planes while the edges are in flight,
// then finishes the boundary planes when the halos arrive, writing the
// result into a second page bank on the same device. Per sweep, only
// the O(N²) halo planes and an O(1) residual scalar cross the network —
// against the client-side path's O(N³) page traffic — and with overlap
// the halo round-trip costs nothing unless it outlasts the interior
// sweep. A sync flag forces the fetch-then-sweep schedule (the
// reference the overlap path is pinned bitwise-equal against).

import (
	"fmt"
	"math"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// decodeJacobiPlane is the pure decode step of jacobiPlane: bytes in, a
// sweep bounded by this device out, no page touched. The request is
//
//	srcOff, dstOff, qbase, N1, N2, N3, P2, P3, sync,
//	P2*P3×pageIdx,
//	hasLo [loRef, P2*P3×loIdx],
//	hasHi [hiRef, P2*P3×hiIdx]
//
// (JacobiPlaneArgs). A device of numPages pages of the given shape
// refuses, before any slice is sized, a plane of more pages than it holds
// or than the frame's remaining bytes can carry, any page index outside
// it, and a negative halo index. A halo index names a page of the
// neighbour, which may hold more pages than this device; its readSubBatch
// refuses one outside it.
func decodeJacobiPlane(args *wire.Decoder, numPages int, page [3]int) (a JacobiPlaneArgs, err error) {
	a.SrcOff, a.DstOff, a.QBase = args.Int(), args.Int(), args.Int()
	a.N1, a.N2, a.N3 = args.Int(), args.Int(), args.Int()
	a.P2, a.P3 = args.Int(), args.Int()
	a.SyncHalo = args.Bool()
	if err := args.Err(); err != nil {
		return a, err
	}
	// P3 > numPages/P2 is P2*P3 > numPages without the product, which
	// may overflow; past it the product is at most numPages.
	if a.P2 <= 0 || a.P3 <= 0 || a.P3 > numPages/a.P2 || a.P2*a.P3 > args.Remaining() {
		return a, fmt.Errorf("pagedev: %w: jacobiPlane grid %dx%d for a device of %d pages, %d bytes left", wire.ErrCorrupt, a.P2, a.P3, numPages, args.Remaining())
	}
	n1, n2, n3 := page[0], page[1], page[2]
	if n2*a.P2 != a.N2 || n3*a.P3 != a.N3 {
		return a, fmt.Errorf("pagedev: jacobiPlane grid %dx%d of %dx%dx%d pages does not tile %dx%dx%d", a.P2, a.P3, n1, n2, n3, a.N1, a.N2, a.N3)
	}
	if a.N1 < n1 || a.QBase < 0 || a.QBase > a.N1-n1 {
		return a, fmt.Errorf("pagedev: jacobiPlane slab [%d,%d) outside [0,%d)", a.QBase, a.QBase+n1, a.N1)
	}
	readPages := func(limit int) ([]int, error) {
		idxs := make([]int, a.P2*a.P3)
		for i := range idxs {
			if idxs[i] = args.Int(); idxs[i] < 0 || idxs[i] >= limit {
				return nil, fmt.Errorf("pagedev: %w: jacobiPlane page index %d outside [0,%d)", wire.ErrCorrupt, idxs[i], limit)
			}
		}
		return idxs, args.Err()
	}
	readHalo := func() (*JacobiHalo, error) {
		if !args.Bool() {
			return nil, args.Err()
		}
		h := &JacobiHalo{Ref: args.Ref()}
		h.Pages, err = readPages(math.MaxInt)
		return h, err
	}
	if a.Pages, err = readPages(numPages); err != nil {
		return a, err
	}
	if a.Lo, err = readHalo(); err != nil {
		return a, err
	}
	if a.Hi, err = readHalo(); err != nil {
		return a, err
	}
	if (a.QBase > 0) != (a.Lo != nil) || (a.QBase+n1 < a.N1) != (a.Hi != nil) {
		return a, fmt.Errorf("pagedev: jacobiPlane halo presence inconsistent with slab [%d,%d) of [0,%d)", a.QBase, a.QBase+n1, a.N1)
	}
	return a, nil
}

// devJacobiPlane(JacobiPlaneArgs, as decodeJacobiPlane reads it): sweep the
// page-plane whose global first-axis range is [qbase, qbase+n1), reading
// bank srcOff and writing bank dstOff (offsets added to every page index).
// Replies the plane's max |update| over interior points.
var devJacobiPlane = ArrayPageDeviceClass.Declare("jacobiPlane", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
	req, err := decodeJacobiPlane(args, a.numPages, a.page())
	if err != nil {
		return err
	}
	srcOff, dstOff, qbase, sync := req.SrcOff, req.DstOff, req.QBase, req.SyncHalo
	N1, N2, N3, P2, P3 := req.N1, req.N2, req.N3, req.P2, req.P3
	pages, hasLo, hasHi := req.Pages, req.Lo != nil, req.Hi != nil
	n1, n2, n3 := a.n1, a.n2, a.n3

	// The slab holds n1 global planes plus the halo planes, indexed
	// slab[(si*N2+gj)*N3+gk]; the sweep writes into a separate output
	// slab so plane order is free.
	row0 := 0
	H := n1
	if hasLo {
		row0, H = 1, H+1
	}
	if hasHi {
		H++
	}
	slab := make([]float64, H*N2*N3)

	// Post the halo pulls FIRST: each neighbour's concurrent
	// readSubBatch serves them while this device assembles its local
	// pages and sweeps the interior. scatter() may only run after
	// wait() succeeds.
	type haloPull struct {
		what    string
		wait    func() error
		scatter func()
	}
	postHalo := func(peer rmi.Ref, idxs []int, peerPlane, slabRow int, what string) haloPull {
		reqs := make([]subReq, 0, P2*P3)
		vals := make([][]float64, 0, P2*P3)
		for p2 := 0; p2 < P2; p2++ {
			for p3 := 0; p3 < P3; p3++ {
				plane := SubBox{Lo: [3]int{peerPlane, 0, 0}, Dim: [3]int{1, n2, n3}}
				reqs = append(reqs, subReq{idxs[p2*P3+p3] + srcOff, plane})
				vals = append(vals, make([]float64, n2*n3))
			}
		}
		wait := a.fetchSubBatchAsync(env, peer, reqs, vals)
		scatter := func() {
			for p2 := 0; p2 < P2; p2++ {
				for p3 := 0; p3 < P3; p3++ {
					scatterRuns(slab, N2, N3, [3]int{slabRow, p2 * n2, p3 * n3}, [3]int{1, n2, n3}, vals[p2*P3+p3])
				}
			}
		}
		return haloPull{what: what, wait: wait, scatter: scatter}
	}
	join := func(h haloPull) error {
		if err := h.wait(); err != nil {
			return fmt.Errorf("pagedev: jacobiPlane %s halo: %w", h.what, err)
		}
		h.scatter()
		return nil
	}
	var pulls []haloPull
	if hasLo {
		pulls = append(pulls, postHalo(req.Lo.Ref, req.Lo.Pages, n1-1, 0, "lo"))
	}
	if hasHi {
		pulls = append(pulls, postHalo(req.Hi.Ref, req.Hi.Pages, 0, H-1, "hi"))
	}
	if sync {
		// Reference schedule: all edges in hand before any arithmetic.
		for _, h := range pulls {
			if err := join(h); err != nil {
				return err
			}
		}
	}

	// Assemble the local planes of the source slab: page (p2,p3) tiles
	// the box of slab rows [row0, row0+n1) at (p2*n2, p3*n3).
	dim := [3]int{n1, n2, n3}
	for p2 := 0; p2 < P2; p2++ {
		for p3 := 0; p3 < P3; p3++ {
			lo := [3]int{row0, p2 * n2, p3 * n3}
			get := func(elems []float64) { scatterRuns(slab, N2, N3, lo, dim, elems) }
			if err := a.withPage(pages[p2*P3+p3]+srcOff, readOnly, get); err != nil {
				return err
			}
		}
	}

	// Sweep, one global plane at a time: interior points average
	// their six neighbours through JacobiRow, the row the client-side
	// sweep runs too, so the paths agree bit for bit; boundary points
	// carry over. Each output value depends only on the source slab
	// and the residual is a max (order-independent), so the plane
	// ORDER is free: the overlap schedule sweeps every plane that
	// needs no halo while the pulls are in flight, then finishes the
	// boundary planes on arrival, and still produces bitwise-identical
	// pages and residual.
	row := func(si, gj int) []float64 { return slab[(si*N2+gj)*N3:][:N3] }
	out := make([]float64, n1*N2*N3)
	var residual float64
	sweepPlane := func(i int) {
		gi, si := qbase+i, row0+i
		for gj := 0; gj < N2; gj++ {
			o, c := out[(i*N2+gj)*N3:][:N3], row(si, gj)
			if gi == 0 || gi == N1-1 || gj == 0 || gj == N2-1 {
				copy(o, c)
				continue
			}
			o[0], o[N3-1] = c[0], c[N3-1]
			r := JacobiRow(o[1:], c, row(si-1, gj), row(si+1, gj), row(si, gj-1), row(si, gj+1))
			residual = math.Max(residual, r)
		}
	}
	// Plane i reads the lo halo iff it is the slab's first plane and
	// the hi halo iff it is the last (both, when n1 == 1).
	needsHalo := func(i int) bool {
		return (hasLo && i == 0) || (hasHi && i == n1-1)
	}
	if sync {
		for i := 0; i < n1; i++ {
			sweepPlane(i)
		}
	} else {
		for i := 0; i < n1; i++ {
			if !needsHalo(i) {
				sweepPlane(i)
			}
		}
		for _, h := range pulls {
			if err := join(h); err != nil {
				return err
			}
		}
		for i := 0; i < n1; i++ {
			if needsHalo(i) {
				sweepPlane(i)
			}
		}
	}

	// Pack the output slab back into pages of bank dstOff.
	for p2 := 0; p2 < P2; p2++ {
		for p3 := 0; p3 < P3; p3++ {
			lo := [3]int{0, p2 * n2, p3 * n3}
			put := func(elems []float64) { gatherRuns(elems, out, N2, N3, lo, dim) }
			if err := a.withPage(pages[p2*P3+p3]+dstOff, overwrite, put); err != nil {
				return err
			}
		}
	}
	reply.PutFloat64(residual)
	return nil
})

// JacobiRow is the 7-point Jacobi stencil along one grid row, the one
// copy jacobiPlane and core.Jacobi sweep with. c is the row; im, ip are
// its neighbour rows along the first axis and jm, jp along the second.
// For each k in [1, len(c)-1) it stores in out[k-1] the average of the
// six neighbours, added in the order im, ip, jm, jp, c[k-1], c[k+1], and
// it returns the max |out[k-1] - c[k]|.
func JacobiRow(out, c, im, ip, jm, jp []float64) float64 {
	var residual float64
	for k := 1; k < len(c)-1; k++ {
		avg := (im[k] + ip[k] + jm[k] + jp[k] + c[k-1] + c[k+1]) / 6
		out[k-1] = avg
		residual = math.Max(residual, math.Abs(avg-c[k]))
	}
	return residual
}
