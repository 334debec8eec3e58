package core

// Owner-computes data movement between distributed arrays: CopyFrom is
// the §5 copyFrom construct generalized from "pull N whole pages from
// one device" to "pull any subdomain between two distributed arrays",
// and HaloExchange builds the stencil client's ghost-shell transfer on
// top of it. In both, element data moves directly between the device
// processes that own it — the client only orchestrates region lists:
// the pull plan below, which Failover's re-seeding and MigratePages'
// copy phase execute too.

import (
	"context"

	"oopp/internal/pagedev"
	"oopp/internal/rmi"
)

// pullPlan is the one device-to-device transfer plan: page regions
// grouped into one pullSubBatch call per (destination, source) device
// pair, pairs in first-seen order.
type pullPlan struct {
	batches []pullBatch
	at      map[[2]int]int // (dst, src) device pair -> index in batches
}

// pullBatch is everything one device pair exchanges; regs[i] is the
// operation's region that regions[i] serves (what an ackTally counts).
type pullBatch struct {
	dst, src int
	regions  []pagedev.PullRegion
	regs     []int
}

func newPullPlan() *pullPlan { return &pullPlan{at: make(map[[2]int]int)} }

// add plans the pull of box from the page at src into the page at dst.
func (p *pullPlan) add(dst, src PageAddress, box pagedev.SubBox, reg int) {
	pair := [2]int{dst.Device, src.Device}
	i, ok := p.at[pair]
	if !ok {
		i = len(p.batches)
		p.at[pair] = i
		p.batches = append(p.batches, pullBatch{dst: dst.Device, src: src.Device})
	}
	b := &p.batches[i]
	b.regions = append(b.regions, pagedev.PullRegion{Index: dst.Index, Box: box, PeerIndex: src.Index})
	b.regs = append(b.regs, reg)
}

// pull executes a plan: a's devices pull from from's, one call per
// batch through the split loop, no element data through the client.
// With a tally every batch's outcome is recorded against the regions it
// served (primary-ack); without one the first failed batch stops the
// transfer.
func (a *Array) pull(ctx context.Context, from *Array, p *pullPlan, t *ackTally) error {
	return rmi.SplitLoop(ctx, len(p.batches), a.inFlight(),
		func(i int) *rmi.Future {
			b := &p.batches[i]
			return a.storage.Device(b.dst).PullSubBatchAsync(ctx, from.storage.Device(b.src).Ref(), b.regions)
		},
		func(i int, f *rmi.Future) error {
			err := f.Err(ctx)
			if t == nil {
				return err
			}
			for _, ri := range p.batches[i].regs {
				if stop := t.record(ri, err); stop != nil {
					return stop
				}
			}
			return nil
		})
}

// CopyFrom copies the subdomain dom of the conformant array src into
// the same subdomain of a, entirely device-to-device: each of a's
// devices pulls its regions of dom straight from the src devices that
// own them (one pullSubBatch call per destination/source device pair),
// so no element data passes through the client. Co-located page pairs
// degrade to shared-address-space copies.
//
// Under replicated maps every destination replica pulls its copy (the
// write fan-out), each from a live replica of the source page; a
// destination replica failing with the typed machine-down error is
// tolerated as long as every region landed on at least one live
// destination replica (primary-ack, like Write — the same ackTally).
func (a *Array) CopyFrom(ctx context.Context, src *Array, dom Domain) error {
	if err := a.conformant(src); err != nil {
		return err
	}
	if err := a.checkDomain(dom); err != nil {
		return err
	}
	spm := src.Map()
	regs := a.regionsOf(a.Map(), dom)
	plan := newPullPlan()
	for i, r := range regs {
		sChain := replicasOf(spm, r.box.Lo[0]/a.p[0], r.box.Lo[1]/a.p[1], r.box.Lo[2]/a.p[2])
		sAddr, _ := src.pickLive(sChain, nil)
		for _, dAddr := range r.chain {
			plan.add(dAddr, sAddr, subBoxFor(r), i)
		}
	}
	return a.pull(ctx, src, plan, a.newAckTally(regs))
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
