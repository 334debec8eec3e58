package core

// Owner-computes data movement between distributed arrays: CopyFrom is
// the §5 copyFrom construct, which pulls whole pages from one device,
// generalized to any subdomain between two distributed arrays — a
// kernel.Copy chain — and copyPages is the same chain between explicit
// page addresses. In both, element data moves directly between the
// device processes that own it.

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
		p.add(a.storage.Device(c.dst.Device).Ref(), c.dst, full, false, []operand{{a.storage.Device(c.src.Device).Ref(), c.src.Index}})
	}
	_, _, err = a.send(ctx, kernel.Chain{cp}, p, nil)
	return err
}

// CopyFrom copies the subdomain dom of the conformant array src into
// the same subdomain of a, device-to-device: it is the one-stage chain
// a.ApplyBinary(ctx, dom, kernel.Copy, src), so it plans, tolerates a
// machine that is down and parks on a migration fence like every other
// mutator (see runChain), and no element data passes through the client.
func (a *Array) CopyFrom(ctx context.Context, src *Array, dom Domain) error {
	return a.ApplyBinary(ctx, dom, kernel.Copy, src)
}
