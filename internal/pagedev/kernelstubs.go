package pagedev

// Client stubs and wire encoders for the kernel engine's one method, the
// owner-computes transfer method and the Jacobi plane sweep. core.Array
// drives the batched methods through its storage collection with the
// encoders; the stub methods exist for direct device use and tests.

import (
	"context"
	"fmt"

	"oopp/internal/kernel"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// PullRegion names a local region and the peer page it is pulled from
// (the box is shared: conformant arrays tile identically).
type PullRegion struct {
	Index     int
	Box       SubBox
	PeerIndex int
}

// ApplyPipelineK resolves the stage chain p (params[i] belongs to
// p.Stages[i]) and runs it over the listed regions with one remote call:
// each region's page is entered once and every stage applied in order,
// in place. It returns the element count touched and one partial per
// reduce stage.
func (d *ArrayDevice) ApplyPipelineK(ctx context.Context, p kernel.Pipeline, params [][]float64, regions []PipeRegion) (int64, []kernel.Partial, error) {
	c, err := p.Resolve(params)
	if err != nil {
		return 0, nil, err
	}
	dec, err := d.client.Call(ctx, d.ref, "applyPipelineK", func(e *wire.Encoder) error {
		EncodeApplyPipelineK(e, c, regions)
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

// PullSubBatchAsync begins an owner-computes transfer: this device
// overwrites each listed local region with the co-indexed region pulled
// from the peer device, device-to-device. The peer may be this device (a
// move between its own pages).
func (d *ArrayDevice) PullSubBatchAsync(ctx context.Context, peer rmi.Ref, regions []PullRegion) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "pullSubBatch", func(e *wire.Encoder) error {
		e.PutRef(peer)
		e.PutInt(len(regions))
		for _, r := range regions {
			putSubBox(e, r.Index, r.Box)
			e.PutInt(r.PeerIndex)
		}
		return nil
	})
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
// plane residual with DecodeSum.
func (d *ArrayDevice) JacobiPlaneAsync(ctx context.Context, a JacobiPlaneArgs) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "jacobiPlane", func(e *wire.Encoder) error {
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
	})
}
