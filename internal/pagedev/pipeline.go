package pagedev

// The kernel engine: applyPipelineK is the ONE device method that copies
// or computes on a page: every array collective, the per-page Sum and
// FillPage, and every device-to-device page copy (Failover's re-seeds,
// MigratePages, JacobiOwner's bank move) run through it. A request
// carries a kernel.Chain inline plus the batch of page regions this
// device owns; each region's page is entered once (withPages) and walked
// through every stage in order — in place, when the store is resident. A
// one-stage chain is Apply, Reduce, ApplyBinary or ReduceBinary, and a
// page copy is a one-stage kernel.Copy chain; a longer one is fused.
//
// Only this file knows the wire format — the encoder, the decoder and
// the reply pair sit side by side:
//
//	request: nstages, nstages×(kind byte, kernel name, params),
//	         [npeers, npeers×peerRef,]
//	         count, count×(idx, box, [fold,] operands×(peer, peerIdx))
//	reply:   touched, reduces×(n, accumulator)
//
// where operands is the chain's two-operand stage count and reduces its
// reduce-stage count. A region's fold flag is there only when reduces is
// not zero, and the peer list only when operands is not: it names each
// peer device the batch reads once, and a region's operand names its peer
// by its position in that list — a position past the list is a corrupt
// frame. Each stage is resolved again on this side of the wire
// (kernel.Resolve), so a chain can never run a kernel only the client
// knows.
//
// applyPipelineK is a SERIAL method (parallel inside: runKernelBatch), but
// its two-operand stages read peer operands from outside the peer's mailbox
// — a co-located one cut alike where it lies (withPages), any other through
// the concurrent readSubBatch lane before a page is entered — so two
// devices mid-batch can still exchange operands without deadlock.
//
// Operands not read where they lie arrive in pieces — runs of regions
// whose fetched values fit bufpool.PieceBytes, or one larger region — one
// readSubBatch per peer and piece, so no reply outgrows the buffer pool. A
// batch that fetches nothing is one piece.

import (
	"fmt"

	"oopp/internal/bufpool"
	"oopp/internal/kernel"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// PipePeer names the second operand of one two-operand stage for one
// region: the peer device, by its position in the batch's Peers, and the
// page index holding the co-indexed box.
type PipePeer struct {
	Peer  int
	Index int
}

// PipeRegion addresses one sub-box of one page for a kernel batch. Fold
// gates the chain's reduce stages for this region: under replication
// every replica executes the mutating stages (the deterministic chain
// keeps replica banks bitwise identical) but exactly one live replica
// per page sets Fold and reports partials, so the client-side merge
// never double-counts. Peers carries one operand per two-operand stage
// of the chain, in stage order.
type PipeRegion struct {
	Index int
	Box   SubBox
	Fold  bool
	Peers []PipePeer
}

// Batch is one device's share of a kernel chain: the regions it runs and
// the peer devices their operands read, each device listed once.
type Batch struct {
	Peers   []rmi.Ref
	Regions []PipeRegion
}

// Peer returns ref's position in b.Peers, appending it if it is not
// listed yet.
func (b *Batch) Peer(ref rmi.Ref) int {
	for i, p := range b.Peers {
		if p == ref {
			return i
		}
	}
	b.Peers = append(b.Peers, ref)
	return len(b.Peers) - 1
}

// EncodeApplyPipelineK packs an applyPipelineK request: the chain inline,
// the batch's peer list when the chain has a two-operand stage, and the
// regions with their fold flags, when the chain has a reduce stage, and
// per-stage peer operands.
func EncodeApplyPipelineK(e *wire.Encoder, c kernel.Chain, b Batch) {
	e.PutInt(len(c))
	for i := range c {
		e.PutByte(byte(c[i].Kind))
		e.PutString(c[i].Name)
		e.PutFloat64s(c[i].Params)
	}
	if c.Operands() > 0 {
		e.PutInt(len(b.Peers))
		for _, ref := range b.Peers {
			e.PutRef(ref)
		}
	}
	e.PutInt(len(b.Regions))
	reduces := c.Width() > 0
	for _, r := range b.Regions {
		putSubBox(e, r.Index, r.Box)
		if reduces {
			e.PutBool(r.Fold)
		}
		for _, pe := range r.Peers {
			e.PutInt(pe.Peer)
			e.PutInt(pe.Index)
		}
	}
}

// Minimum encoded sizes: a stage is a kind byte and two length
// prefixes; a peer ref is a machine, an object and a class name; a
// region is a sub-box, plus a fold flag when the chain reduces and a peer
// position and an index per operand.
const (
	minStage   = 3
	minRef     = 3
	minRegion  = minSubBox
	minOperand = 2
)

// kernelBatch is a decoded, validated applyPipelineK request: the chain,
// resolved in this process's registry, the peers its operands read and
// the regions it runs over.
type kernelBatch struct {
	chain   kernel.Chain
	peers   []batchPeer
	regions []PipeRegion
}

// batchPeer is one peer device of a batch: its ref as decoded and, once
// the batch runs (runKernelBatch resolves each peer once), the device
// itself when it lives in this process — nil for any other.
type batchPeer struct {
	ref rmi.Ref
	dev *arrayPageDevice
}

// decodeKernelBatch is the pure decode step of applyPipelineK: bytes in,
// a validated batch out, no page touched. Every stage's kind, kernel
// name and parameter arity, every sub-box against the page geometry,
// every peer position against the peer list, and every count against the
// frame length are checked here; a frame with bytes left over (more peers
// than two-operand stages) is refused like one that runs short.
func decodeKernelBatch(args *wire.Decoder, page [3]int) (b kernelBatch, err error) {
	nstages, err := decodeCount(args, minStage)
	if err != nil {
		return b, err
	}
	if nstages == 0 {
		return b, fmt.Errorf("pagedev: applyPipelineK: empty stage chain")
	}
	b.chain = make(kernel.Chain, nstages)
	for i := range b.chain {
		s := kernel.Stage{Kind: kernel.StageKind(args.Byte()), Name: args.String()}
		params := args.Float64s()
		if err := args.Err(); err != nil {
			return b, err
		}
		if b.chain[i], err = kernel.Resolve(s, params); err != nil {
			return b, fmt.Errorf("pagedev: applyPipelineK stage %d: %w", i, err)
		}
	}
	operands := b.chain.Operands()
	if operands > 0 {
		npeers, err := decodeCount(args, minRef)
		if err != nil {
			return b, err
		}
		b.peers = make([]batchPeer, npeers)
		for i := range b.peers {
			b.peers[i].ref = args.Ref()
		}
	}
	folds := min(b.chain.Width(), 1) // a fold flag's byte, when the chain reduces
	count, err := decodeCount(args, minRegion+folds+operands*minOperand)
	if err != nil {
		return b, err
	}
	b.regions = make([]PipeRegion, count)
	peers := make([]PipePeer, count*operands) // one backing array for every region's operands
	for n := range b.regions {
		r := &b.regions[n]
		r.Index = args.Int()
		if r.Box.Lo, r.Box.Dim, err = decodeSubBox(args, page); err != nil {
			return b, err
		}
		r.Fold = folds > 0 && args.Bool()
		r.Peers = peers[n*operands : (n+1)*operands]
		for o := range r.Peers {
			r.Peers[o] = PipePeer{Peer: args.Int(), Index: args.Int()}
		}
		if err := args.Err(); err != nil {
			return b, err
		}
		for _, pe := range r.Peers {
			if pe.Peer < 0 || pe.Peer >= len(b.peers) {
				return b, fmt.Errorf("pagedev: %w: region %d names peer %d of %d", wire.ErrCorrupt, n, pe.Peer, len(b.peers))
			}
		}
	}
	if args.Remaining() != 0 {
		return b, fmt.Errorf("pagedev: %w: %d bytes after the last region of an applyPipelineK batch", wire.ErrCorrupt, args.Remaining())
	}
	return b, nil
}

// DecodePipelineReply reads an applyPipelineK reply — the element count
// touched, then one (count, accumulator) partial per reduce stage of c,
// in stage order — and folds each partial into totals, shaped as
// c.Identity(), by its stage's fold rule. A partial whose accumulator is
// not its stage's width is refused, never folded.
func DecodePipelineReply(d *wire.Decoder, c kernel.Chain, totals []kernel.Partial) (touched int64, err error) {
	touched = d.Varint()
	buf, i := make([]float64, c.Width()), 0
	for si := range c {
		st := &c[si]
		w := st.Width()
		if w == 0 {
			continue
		}
		y := kernel.Partial{N: d.Varint(), Acc: buf[:w]}
		if d.Float64sInto(y.Acc); d.Err() != nil {
			break
		}
		st.Fold(&totals[i], y)
		i++
	}
	return touched, d.Err()
}

// DevApplyPipelineK is the kernel engine's one method, a decoded batch run
// by runKernelBatch; core.Array fans it out over its devices.
var DevApplyPipelineK = ArrayPageDeviceClass.Declare("applyPipelineK", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
	b, err := decodeKernelBatch(args, a.page())
	if err != nil {
		return err
	}
	return a.runKernelBatch(env, b, reply)
})

// runKernelBatch executes a decoded batch: fence pre-scan, then piece by
// piece the operands fetched and the regions shared among the machine's
// processors by rmi.Share — which says who runs them, when a piece is too
// small to share and what becomes of an error or a panic — then each
// reduce stage's region accumulators folded into the reply. Which goroutine
// ran which region shows nowhere: a reduce stage folds each region into
// that region's OWN accumulator (Init, then Row per run), and those are
// folded afterwards in region order by the stage's one fold rule, so the
// reply is bitwise the same for one goroutine or eight.
func (a *arrayPageDevice) runKernelBatch(env *rmi.Env, b kernelBatch, reply *wire.Encoder) error {
	// Fence-scan the whole batch before touching any page (mutating
	// chains only; reads are never fenced): a batch refused by the
	// migration fence applies nowhere, so the caller can replay it
	// verbatim — fold flags included — without double-applying.
	mutates, width := b.chain.Mutates(), b.chain.Width()
	elems := 0
	for i := range b.regions {
		if mutates {
			if err := a.checkFence(b.regions[i].Index); err != nil {
				return err
			}
		}
		elems += b.regions[i].Box.Size()
	}
	// Each peer is resolved once for the whole batch.
	for k := range b.peers {
		b.peers[k].dev, _ = localArrayDevice(env, b.peers[k].ref)
	}
	// One slab: a row of width floats per region, and a last row to fold into.
	accs := make([]float64, (len(b.regions)+1)*width)
	workers, share := rmi.Sharers(len(b.regions), elems), true
	if workers > 1 && !b.orderFree(a) {
		workers, share = 1, false
	}
	// Slot 0 holds a piece's fetched operands, slot w+1 is worker w's: all exist
	// before a helper looks for its own, as no piece has more sharers than the batch.
	a.stage(workers, 0)
	n := 1 + b.chain.Operands()
	pages := make([]pageRef, len(b.regions)*n)
	for lo, hi := 0, 0; lo < len(b.regions); lo = hi {
		var size int
		var err error
		if hi, size, err = a.piece(env, b, pages, lo); err != nil {
			return err
		}
		if !share {
			size = 0
		}
		err = rmi.Share(hi-lo, size, func(w, k int) error {
			i := lo + k
			return a.region(b, accs[i*width:], pages[i*n:(i+1)*n], w, i)
		})
		if err != nil {
			return err
		}
	}
	// A stage no region folded (all empty or fold=false) reports N == 0
	// beside the identity, which the client never merges.
	reply.PutVarint(int64(elems))
	total, off := accs[len(b.regions)*width:], 0
	for si := range b.chain {
		st := &b.chain[si]
		w := st.Width()
		if w == 0 {
			continue
		}
		sum := kernel.Partial{Acc: total[off : off+w]}
		st.Init(sum.Acc)
		for i, r := range b.regions {
			if r.Fold {
				st.Fold(&sum, kernel.Partial{N: int64(r.Box.Size()), Acc: accs[i*width+off:][:w]})
			}
		}
		reply.PutVarint(sum.N)
		reply.PutFloat64s(sum.Acc)
		off += w
	}
	return nil
}

// piece names the operands of the regions from lo on (pages[i*n+1:], n per
// region): a co-located peer cut alike in place, any other fetched into
// staging slot 0 before it returns — one readSubBatch per peer, all posted
// before the first is waited for. The piece ends at hi, where a further
// region would take its fetched values past bufpool.PieceBytes; size is its
// elements. A non-folding replica reads no binary-reduce operand: the stage
// writes nothing to keep in step.
func (a *arrayPageDevice) piece(env *rmi.Env, b kernelBatch, pages []pageRef, lo int) (hi, size int, err error) {
	type fetch struct {
		p    *pageRef
		peer int // in b.peers
		subReq
	}
	var fetches []fetch
	n, fetched := 1+b.chain.Operands(), 0
	for hi = lo; hi < len(b.regions); hi++ {
		r := &b.regions[hi]
		rs, before, need, op := r.Box.Size(), len(fetches), 0, 0
		for si := range b.chain {
			st := &b.chain[si]
			if !st.Operand() {
				continue
			}
			p, pe := &pages[hi*n+1+op], r.Peers[op]
			*p = pageRef{}
			op++
			if rs == 0 || st.Width() > 0 && !r.Fold {
				continue
			}
			if peer := b.peers[pe.Peer].dev; peer != nil && peer.page() == a.page() {
				*p = pageRef{dev: peer, index: pe.Index, box: r.Box}
				continue
			}
			fetches, need = append(fetches, fetch{p, pe.Peer, subReq{pe.Index, r.Box}}), need+rs
		}
		if fetched > 0 && 8*(fetched+need) > bufpool.PieceBytes {
			fetches = fetches[:before]
			break
		}
		fetched, size = fetched+need, size+rs
	}
	if len(fetches) == 0 { // everything read in place: no call, nothing staged
		return hi, size, nil
	}
	// A peer only the region left for the next piece named has no request here, and no call.
	vals, reqs, dst := a.stage(0, fetched), make([][]subReq, len(b.peers)), make([][][]float64, len(b.peers))
	for _, f := range fetches {
		f.p.vals, vals = vals[:f.Size()], vals[f.Size():]
		reqs[f.peer], dst[f.peer] = append(reqs[f.peer], f.subReq), append(dst[f.peer], f.p.vals)
	}
	waits := make([]func() error, len(b.peers))
	for k, peer := range b.peers {
		waits[k] = a.fetchSubBatchAsync(env, peer.ref, reqs[k], dst[k])
	}
	for _, wait := range waits {
		if werr := wait(); err == nil {
			err = werr
		}
	}
	return hi, size, err
}

// orderFree reports whether the batch's regions may run in any order: not
// when the chain writes and two regions share a page, or one's operand is
// a page of this very device that ANOTHER region writes. Such a batch —
// the array layer plans none — keeps region order, on one worker.
func (b kernelBatch) orderFree(a *arrayPageDevice) bool {
	if !b.chain.Mutates() {
		return true
	}
	written := make(map[int]bool, len(b.regions))
	for _, r := range b.regions {
		if written[r.Index] {
			return false
		}
		written[r.Index] = true
	}
	for _, r := range b.regions {
		for _, pe := range r.Peers {
			if pe.Index != r.Index && written[pe.Index] && b.peers[pe.Peer].dev == a {
				return false
			}
		}
	}
	return true
}

// region walks region i on worker w: its page (pages[0]) through every
// stage, beside the operands piece named or fetched (pages[1:]), folding
// its reduce stages into accs, one accumulator each, side by side. What is
// read is always the peer's STORED page, this device's own included — a
// chain never has a page it writes in place — so an operand withPages
// cannot hold beside the page is first copied to its slot of the worker's
// staging buffer.
func (a *arrayPageDevice) region(b kernelBatch, accs []float64, pages []pageRef, w, i int) error {
	r := &b.regions[i]
	size := r.Box.Size()
	if size == 0 {
		// An empty sub-box reaches no stage at all: map stages have
		// nothing to write and reduce stages must skip, not fold.
		return nil
	}
	slot := func(i int) []float64 { return a.stage(w+1, (len(pages)-1)*size)[(i-1)*size : i*size] }
	// A chain that never writes only reads its pages (no write charged);
	// one whose first stage overwrites every element need not load a
	// whole-page region (no read charged).
	how := readOnly
	switch {
	case b.chain.Overwrites() && size == a.n1*a.n2*a.n3:
		how = overwrite
	case b.chain.Mutates():
		how = update
	}
	pages[0] = pageRef{dev: a, index: r.Index, how: how}
	return withPages(pages, slot, func(elems []float64) {
		op := 1
		for si := range b.chain {
			st := &b.chain[si]
			var peer *pageRef
			if st.Operand() {
				peer, op = &pages[op], op+1
			}
			acc := accs[:st.Width()]
			accs = accs[len(acc):]
			if len(acc) > 0 {
				if !r.Fold {
					continue
				}
				st.Init(acc)
			}
			pos := 0
			forEachRun(a.n2, a.n3, r.Box.Lo, r.Box.Dim, func(off, n int) {
				var pv []float64
				if peer != nil {
					pv, pos = peer.run(off, pos, n), pos+n
				}
				st.Row(acc, elems[off:off+n], pv)
			})
		}
	})
}
