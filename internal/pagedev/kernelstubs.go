package pagedev

// Client stubs and wire encoders for the kernel engine's one method and
// the Jacobi plane sweep. core.Array drives the batched methods with the
// encoders, on rmi.FanOut over its devices' refs; the stub methods exist
// for direct device use and tests.

import (
	"context"
	"fmt"

	"oopp/internal/kernel"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// ApplyPipelineK runs the chain c over the batch's regions with one
// remote call: each region's page is entered once and every stage
// applied in order, in place. It returns the element count touched and
// one partial per reduce stage.
func (d *ArrayDevice) ApplyPipelineK(ctx context.Context, c kernel.Chain, b Batch) (int64, []kernel.Partial, error) {
	dec, err := DevApplyPipelineK.Call(ctx, d.client, d.ref, func(e *wire.Encoder) error {
		EncodeApplyPipelineK(e, c, b)
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	defer dec.Release()
	parts := c.Identity()
	touched, err := DecodePipelineReply(dec, c, parts)
	return touched, parts, err
}

// onPage runs the one-stage chain of s and params over the whole of page
// index.
func (d *ArrayDevice) onPage(ctx context.Context, index int, s kernel.Stage, params ...float64) ([]kernel.Partial, error) {
	st, err := kernel.Resolve(s, params)
	if err != nil {
		return nil, err
	}
	whole := PipeRegion{Index: index, Box: SubBox{Dim: d.dims()}, Fold: true}
	_, parts, err := d.ApplyPipelineK(ctx, kernel.Chain{st}, Batch{Regions: []PipeRegion{whole}})
	return parts, err
}

// Sum computes the page's element sum on the remote machine — "moving the
// computation to the data" (§3): only the scalar crosses the network. It
// is a one-region kernel.Sum chain, whose row fold over a whole page is
// one sequential loop from zero, so it is bitwise ArrayPage.Sum.
func (d *ArrayDevice) Sum(ctx context.Context, index int) (float64, error) {
	parts, err := d.onPage(ctx, index, kernel.ReduceStage(kernel.Sum))
	if err != nil {
		return 0, err
	}
	return parts[0].Acc[0], nil
}

// FillPage sets every element of page index to v, remotely: a one-region
// kernel.Fill chain.
func (d *ArrayDevice) FillPage(ctx context.Context, index int, v float64) error {
	_, err := d.onPage(ctx, index, kernel.MapStage(kernel.Fill), v)
	return err
}

// JacobiHalo names the neighbour plane of an owner-computes sweep: the
// device process holding it and its page indices in (p2, p3) row-major
// order.
type JacobiHalo struct {
	Ref   rmi.Ref
	Pages []int
}

// JacobiPlaneArgs describes one page-plane sweep (see the jacobiPlane
// method): bank offsets, the slab's global position, the page grid, the
// plane's page indices, and the neighbour planes (nil at the array
// boundary). SyncHalo forces the fetch-then-sweep reference schedule;
// the default (false) posts halo pulls asynchronously and sweeps the
// interior while they are in flight — bitwise-equal by construction.
type JacobiPlaneArgs struct {
	SrcOff, DstOff int
	QBase          int
	N1, N2, N3     int
	P2, P3         int
	SyncHalo       bool
	Pages          []int
	Lo, Hi         *JacobiHalo
}

// JacobiPlaneAsync begins one owner-computes plane sweep; decode the
// plane residual with DecodeResidual.
func (d *ArrayDevice) JacobiPlaneAsync(ctx context.Context, a JacobiPlaneArgs) *rmi.Future {
	return devJacobiPlane.CallAsync(ctx, d.client, d.ref, func(e *wire.Encoder) error { return encodeJacobiPlane(e, a) })
}

// encodeJacobiPlane writes a jacobiPlane request (decodeJacobiPlane).
func encodeJacobiPlane(e *wire.Encoder, a JacobiPlaneArgs) error {
	if len(a.Pages) != a.P2*a.P3 {
		return fmt.Errorf("pagedev: jacobiPlane: %d pages for a %dx%d grid", len(a.Pages), a.P2, a.P3)
	}
	e.PutInt(a.SrcOff)
	e.PutInt(a.DstOff)
	e.PutInt(a.QBase)
	e.PutInt(a.N1)
	e.PutInt(a.N2)
	e.PutInt(a.N3)
	e.PutInt(a.P2)
	e.PutInt(a.P3)
	e.PutBool(a.SyncHalo)
	for _, p := range a.Pages {
		e.PutInt(p)
	}
	putHalo := func(h *JacobiHalo) error {
		e.PutBool(h != nil)
		if h == nil {
			return nil
		}
		if len(h.Pages) != a.P2*a.P3 {
			return fmt.Errorf("pagedev: jacobiPlane halo: %d pages for a %dx%d grid", len(h.Pages), a.P2, a.P3)
		}
		e.PutRef(h.Ref)
		for _, p := range h.Pages {
			e.PutInt(p)
		}
		return nil
	}
	if err := putHalo(a.Lo); err != nil {
		return err
	}
	return putHalo(a.Hi)
}
