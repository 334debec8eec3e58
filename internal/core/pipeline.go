package core

// The kernel engine, client side: every array collective — Apply,
// Reduce, ApplyBinary, ReduceBinary and the algebra built on them
// (kernel.go), and the fused ApplyPipeline — is one kernel.Chain handed
// to ONE loop, runChain: plan the per-device region batches, fan them
// out on rmi.FanOut (one RMI per involved device carries the whole
// chain; each device walks every page region through all stages in a
// single load/store pass), classify the failed devices once by the
// typed cause they share, and replay. Stage parameters travel out,
// fixed-width reduce partials travel back and fold into the chain's
// identity by its stages' fold rule; no element data touches the
// client.

import (
	"context"
	"errors"
	"fmt"

	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/wire"
)

// StageResult is the client-side outcome of one reduce stage of a
// fused pipeline: the merged accumulator and the number of elements
// folded into it. Stage is the stage's index in the pipeline chain and
// Name its reduce kernel. A result with N == 0 (empty domain) carries
// the kernel's identity accumulator, exactly like Array.Reduce.
type StageResult struct {
	Stage int
	Name  string
	Acc   []float64
	N     int64
}

// batches is a chain's plan: one pagedev.Batch per device, devices in
// first-seen order, each beside its ref.
type batches struct {
	devs  []int
	refs  []rmi.Ref // refs[i] is device devs[i]'s
	byDev map[int]pagedev.Batch
	peers []pagedev.PipePeer // what the next regions' operands are cut from
}

// operand is the page a two-operand stage reads for one region: page
// index of the device ref.
type operand struct {
	ref   rmi.Ref
	index int
}

// add appends the region box of the page at addr to its device's batch,
// its operands ops, one per two-operand stage; each operand's device
// joins the batch's peer list the first time it is named. ref is the
// ref of addr's device.
func (p *batches) add(ref rmi.Ref, addr PageAddress, box pagedev.SubBox, fold bool, ops []operand) {
	b, ok := p.byDev[addr.Device]
	if !ok {
		if p.byDev == nil {
			p.byDev = make(map[int]pagedev.Batch)
		}
		p.devs = append(p.devs, addr.Device)
		p.refs = append(p.refs, ref)
	}
	r := pagedev.PipeRegion{Index: addr.Index, Box: box, Fold: fold}
	if len(ops) > 0 {
		if len(p.peers) < len(ops) {
			p.peers = make([]pagedev.PipePeer, 64*len(ops))
		}
		r.Peers, p.peers = p.peers[:len(ops):len(ops)], p.peers[len(ops):]
		for i, o := range ops {
			r.Peers[i] = pagedev.PipePeer{Peer: b.Peer(o.ref), Index: o.index}
		}
	}
	b.Regions = append(b.Regions, r)
	p.byDev[addr.Device] = b
}

// send fans the planned batches out to their devices — one
// applyPipelineK call each, on rmi.FanOut over the plan's refs at the
// array's window, so a machine's share leaves in one write — and folds
// each member's partials into totals, one per reduce stage of c, in
// device order (FanOut serializes collect). On failure it returns the
// joined error, each rmi.MemberError renamed from its position in the
// fan-out to its device index, the failed devices, and the one typed
// cause they all share: rmi.ErrFenced, rmi.ErrMachineDown, or nil.
func (a *Array) send(ctx context.Context, c kernel.Chain, p batches, totals []kernel.Partial) (failed []int, cause, err error) {
	err = rmi.FanOut(ctx, a.storage.Client(), p.refs, pagedev.DevApplyPipelineK.Name(),
		func(i int, e *wire.Encoder) error {
			pagedev.EncodeApplyPipelineK(e, c, p.byDev[p.devs[i]])
			return nil
		},
		func(_ int, d *wire.Decoder) error {
			_, err := pagedev.DecodePipelineReply(d, c, totals)
			return err
		}, a.inFlight())
	if err == nil {
		return nil, nil, nil
	}
	cause = rmi.ErrFenced
	if !errors.Is(err, cause) {
		cause = rmi.ErrMachineDown
	}
	// FanOut's error is errors.Join of one MemberError per failed member.
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		me := e.(*rmi.MemberError)
		me.Index = p.devs[me.Index]
		failed = append(failed, me.Index)
		if cause != nil && !errors.Is(me, cause) {
			cause = nil
		}
	}
	return failed, cause, err
}

// results names the reduce stages' totals: each the fold, in device
// order, of each device's fold, in region order, of one accumulator per
// page region — or, for a stage nothing was folded into (N == 0: an
// empty domain), the identity the totals started from.
func results(c kernel.Chain, totals []kernel.Partial) []StageResult {
	out := make([]StageResult, 0, len(totals))
	for si := range c {
		if c[si].Width() > 0 {
			t := totals[len(out)]
			out = append(out, StageResult{Stage: si, Name: c[si].Name, Acc: t.Acc, N: t.N})
		}
	}
	return out
}

// plan is the one kernel planner: it groups the regions by owning
// device, in first-seen device order (row-major page order, so a
// round-robin map yields balanced batches) — which, with the regions'
// order within each, is the reduce stages' fold order. Mutating chains fan every
// region to the page's whole replica chain (kernels are deterministic
// and each device applies them inside its serial mailbox, so replicas
// stay bitwise identical); when the chain also reduces, exactly ONE
// live replica per page gets Fold=true — it alone reports partials,
// so the client-side merge never double-counts a page. Read-only
// chains visit one live replica per page, chosen by pickLive with the
// exclude set of the retry path, folding there. Each two-operand
// stage's operand page is read from the operand array's first live
// replica.
func (a *Array) plan(c kernel.Chain, operands []*Array, regs []region, exclude map[int]bool) (p batches, err error) {
	mutates, fold := c.Mutates(), c.Width() > 0
	ops := make([]operand, 0, 4)
	for _, r := range regs {
		box := subBoxFor(r)
		ops = ops[:0]
		for _, b := range operands {
			bChain := b.Map().chain(r.box.Lo[0]/a.p[0], r.box.Lo[1]/a.p[1], r.box.Lo[2]/a.p[2])
			bAddr, _ := b.pickLive(bChain, nil)
			ops = append(ops, operand{b.storage.Device(bAddr.Device).Ref(), bAddr.Index})
		}
		if mutates {
			var foldAddr PageAddress
			if fold {
				foldAddr, _ = a.pickLive(r.chain, nil)
			}
			for _, addr := range r.chain {
				p.add(a.storage.Device(addr.Device).Ref(), addr, box, fold && addr == foldAddr, ops)
			}
			continue
		}
		addr, ok := a.pickLive(r.chain, exclude)
		if !ok {
			return p, fmt.Errorf("core: page %v: no replica left outside failed machines: %w", r.chain[0], rmi.ErrMachineDown)
		}
		p.add(a.storage.Device(addr.Device).Ref(), addr, box, true, ops)
	}
	return p, nil
}

// relocate is the one relocator: it rebuilds the refused devices'
// batches against the flipped map, re-aiming every region at its copy's
// new address; fold flags and peer operands ride along unchanged (the
// read side is never fenced). Refusal is all-or-nothing per device
// (pagedev's fence pre-scan) — a fenced device neither mutated nor
// folded — so replaying exactly the refused batches keeps both the
// mutations and the partials exactly-once.
func (a *Array) relocate(pm PageMap, failed []int, old batches) (p batches) {
	ops := make([]operand, 0, 4)
	for _, dev := range failed {
		b := old.byDev[dev]
		for _, r := range b.Regions {
			ops = ops[:0]
			for _, pe := range r.Peers {
				ops = append(ops, operand{b.Peers[pe.Peer], pe.Index})
			}
			addr := relocatedAddr(pm, PageAddress{Device: dev, Index: r.Index})
			p.add(a.storage.Device(addr.Device).Ref(), addr, r.Box, r.Fold, ops)
		}
	}
	return p
}

// ApplyPipeline runs the registered pipeline name over dom as one fused
// pass: one RMI per involved device carries the whole stage chain, and
// each device loads every page region once, applies the stages in
// order, and stores once. operands supplies the second operand array of
// each two-operand stage, in stage order (empty for pipelines without
// one); params supplies one parameter vector per stage. It returns one
// StageResult per reduce stage, in stage order, merged in region order
// within a device and device order across (deterministic for associative kernels).
//
// Fusion changes the cost, not the semantics: the results are
// bitwise-identical to issuing the stages as individual
// Apply/ApplyBinary/Reduce calls, because each device applies the same
// stage arithmetic to the same rows in the same order — the chain just
// stays in the page buffer between stages. See runChain for what every
// chain, fused or one-stage, guarantees under replication, migration
// and machine failure.
func (a *Array) ApplyPipeline(ctx context.Context, dom Domain, name string, operands []*Array, params ...[]float64) ([]StageResult, error) {
	ctx, sp := trace.StartSpan(ctx, "kernel.pipeline")
	c, err := kernel.LookupPipeline(name, params)
	var res []StageResult
	if err == nil {
		res, err = a.runChain(ctx, dom, c, operands)
	}
	sp.End(err != nil)
	return res, err
}

// runChain is the one plan → fan-out → classify → replay loop. Batches
// are not transactional across devices: a mid-operation failure can
// leave dom partially transformed.
//
// Under a replicated map a mutating chain fans out to every replica of
// every page while each page's reduce stages fold on exactly one. Each
// fan-out's failed devices are classified once, by the typed cause they
// all share (send), and the loop takes one of four turns:
//
//   - fenced: a batch racing a live migration of this Array value is
//     refused all-or-nothing per device (rmi.ErrFenced); the loop parks
//     until the map flips and replays exactly the refused batches at
//     the copies' new addresses (relocate) — each page copy sees each
//     mutating stage exactly once, fenced or not;
//   - machine-down on a read-only chain: the failed devices are
//     excluded and the whole fold is planned again against the
//     surviving replicas, from fresh totals;
//   - machine-down on a mutate-only chain: primary-ack semantics — the
//     failure is absorbed while every page kept at least one live
//     replica (coverDown: the write landed there; the dead copy is
//     dropped and re-seeded at Failover);
//   - anything else is returned, machine-down on a chain that both
//     mutates and reduces among it: its mutations cannot be safely
//     re-executed to recover the lost partials.
func (a *Array) runChain(ctx context.Context, dom Domain, c kernel.Chain, operands []*Array) ([]StageResult, error) {
	if len(operands) != c.Operands() {
		return nil, fmt.Errorf("core: chain has %d two-operand stage(s), got %d operand array(s)", c.Operands(), len(operands))
	}
	for _, b := range operands {
		if err := a.conformant(b); err != nil {
			return nil, err
		}
	}
	if err := a.checkDomain(dom); err != nil {
		return nil, err
	}
	pm := a.Map()
	regs := a.regionsOf(pm, dom)
	if len(regs) == 0 {
		return results(c, c.Identity()), nil
	}
	exclude := make(map[int]bool)
	p, err := a.plan(c, operands, regs, exclude)
	if err != nil {
		return nil, err
	}
	// totals persists across fence replays: members that succeeded keep
	// their partials, refused members folded nothing.
	totals := c.Identity()
	for attempt := 0; ; attempt++ {
		failed, cause, err := a.send(ctx, c, p, totals)
		switch {
		case err == nil:
			return results(c, totals), nil
		case cause == rmi.ErrFenced && attempt < maxFenceRetries:
			next, werr := a.waitMapFlip(ctx, pm)
			if werr != nil {
				return nil, err
			}
			pm = next
			p = a.relocate(pm, failed, p)
		case cause == rmi.ErrMachineDown && !c.Mutates() && attempt+1 < pm.Replicas():
			for _, dev := range failed {
				exclude[dev] = true
			}
			if p, err = a.plan(c, operands, regs, exclude); err != nil {
				return nil, err
			}
			totals = c.Identity()
		case cause == rmi.ErrMachineDown && c.Width() == 0:
			if err := a.coverDown(err, regs, failed); err != nil {
				return nil, err
			}
			return results(c, totals), nil
		default:
			return nil, err
		}
	}
}
