package core

// Owner-computes data movement between distributed arrays: CopyFrom is
// the §5 copyFrom construct generalized from "pull N whole pages from
// one device" to "pull any subdomain between two distributed arrays" —
// a kernel.Copy chain — and HaloExchange builds the stencil client's
// ghost-shell transfer on top of it; copyPages is the same chain between
// explicit page addresses. In all three, element data moves directly
// between the device processes that own it.

import (
	"context"

	"oopp/internal/kernel"
	"oopp/internal/pagedev"
)

// pageCopy is one whole page copied from src to dst.
type pageCopy struct{ dst, src PageAddress }

// copyPages copies whole pages between explicit addresses, not through
// the map (Failover's re-seeds, MigratePages' copies, JacobiOwner's bank
// move): one kernel.Copy batch per destination device, in first-seen
// order, naming each source device once, sent through the fan-out every
// collective takes; no element data passes through the client.
func (a *Array) copyPages(ctx context.Context, copies []pageCopy) error {
	cp, err := kernel.Resolve(kernel.BinaryStage(kernel.Copy), nil)
	if err != nil {
		return err
	}
	var p batches
	full := pagedev.SubBox{Dim: a.p}
	for _, c := range copies {
		p.add(c.dst, full, false, []operand{{a.storage.Device(c.src.Device).Ref(), c.src.Index}})
	}
	return a.send(ctx, kernel.Chain{cp}, p, nil)
}

// CopyFrom copies the subdomain dom of the conformant array src into
// the same subdomain of a, device-to-device: it is the one-stage chain
// a.ApplyBinary(ctx, dom, kernel.Copy, src), so it plans, tolerates a
// machine that is down and parks on a migration fence like every other
// mutator (see runChain), and no element data passes through the client.
func (a *Array) CopyFrom(ctx context.Context, src *Array, dom Domain) error {
	return a.ApplyBinary(ctx, dom, kernel.Copy, src)
}

// HaloExchange pulls the ghost shell of width w around slab from the
// conformant array src into a: for each axis, the face slabs directly
// below and above slab (clamped to the array bounds) are copied
// device-to-device — the ghost-plane transfer an owner-computes stencil
// client performs between sweeps, costing O(surface) traffic instead of
// the O(volume) a client-side halo read moves. Faces outside the array
// are skipped; w < 1 defaults to 1.
func (a *Array) HaloExchange(ctx context.Context, src *Array, slab Domain, w int) error {
	if err := a.conformant(src); err != nil {
		return err
	}
	if err := a.checkDomain(slab); err != nil {
		return err
	}
	if w < 1 {
		w = 1
	}
	bounds := a.Bounds()
	for axis := 0; axis < 3; axis++ {
		lo := slab
		lo.Lo[axis], lo.Hi[axis] = slab.Lo[axis]-w, slab.Lo[axis]
		hi := slab
		hi.Lo[axis], hi.Hi[axis] = slab.Hi[axis], slab.Hi[axis]+w
		for _, face := range []Domain{lo.Intersect(bounds), hi.Intersect(bounds)} {
			if face.Empty() {
				continue
			}
			if err := a.CopyFrom(ctx, src, face); err != nil {
				return err
			}
		}
	}
	return nil
}
