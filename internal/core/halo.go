package core

// Owner-computes data movement between distributed arrays: CopyFrom is
// the §5 copyFrom construct generalized from "pull N whole pages from
// one device" to "pull any subdomain between two distributed arrays" —
// a kernel.Copy chain — and HaloExchange builds the stencil client's
// ghost-shell transfer on top of it. In both, element data moves
// directly between the device processes that own it.

import (
	"context"

	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// pullPlan copies between explicit page addresses, not through the map
// (Failover's re-seeds, MigratePages' copies, JacobiOwner's bank move):
// page regions grouped into one pullSubBatch call per (destination,
// source) device pair, pairs in first-seen order.
type pullPlan struct {
	batches []pullBatch
	at      map[[2]int]int // (dst, src) device pair -> index in batches
}

// pullBatch is everything one device pair exchanges.
type pullBatch struct {
	dst, src int
	regions  []pagedev.PullRegion
}

func newPullPlan() *pullPlan { return &pullPlan{at: make(map[[2]int]int)} }

// add plans the pull of box from the page at src into the page at dst.
func (p *pullPlan) add(dst, src PageAddress, box pagedev.SubBox) {
	pair := [2]int{dst.Device, src.Device}
	i, ok := p.at[pair]
	if !ok {
		i = len(p.batches)
		p.at[pair] = i
		p.batches = append(p.batches, pullBatch{dst: dst.Device, src: src.Device})
	}
	b := &p.batches[i]
	b.regions = append(b.regions, pagedev.PullRegion{Index: dst.Index, Box: box, PeerIndex: src.Index})
}

// pull executes a plan: a's devices pull from from's, one call per
// batch through the split loop, no element data through the client; the
// first failed batch stops the transfer.
func (a *Array) pull(ctx context.Context, from *Array, p *pullPlan) error {
	return rmi.SplitLoop(ctx, len(p.batches), a.inFlight(),
		func(i int) *rmi.Future {
			b := &p.batches[i]
			return a.storage.Device(b.dst).PullSubBatchAsync(ctx, from.storage.Device(b.src).Ref(), b.regions)
		},
		func(i int, f *rmi.Future) error { return f.Err(ctx) })
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
