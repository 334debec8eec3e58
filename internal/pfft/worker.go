// Package pfft implements the paper's §4 worked example: "a collection of
// processes for a joint computation of a Fourier transform".
//
// A master creates N FFT worker processes, one per machine
// ("fft[id] = new(machine id) FFT(id)"), tells each about the group
// ("fft[id]->SetGroup(N, fft)" — with the §4 deep copy of the remote
// pointer array), and triggers the joint transform
// ("fft[id]->transform(sign, a)"). Workers exchange transpose blocks by
// executing methods on each other — inter-process communication as remote
// method execution, no explicit messages.
//
// Algorithm: slab decomposition of an N1×N2×N3 array along axis 1 (geom).
//
//	phase 1  local 2D FFTs over axes (2,3) of each worker's slab
//	phase 2  all-to-all transpose: worker w pushes the (S1w × S2v × N3)
//	         block to each peer v via v.storeBlock(...)
//	phase 3  local 1D FFTs along the now-local axis 1
//	phase 4  all-to-all transpose back to the original slab layout
//
// A worker does not run the phases one after the other over its whole
// buffer. Its unit of work is the plane: an i1-plane of the slab for phases
// 1 and 2, an i2-plane of the transposed buffer for phases 3 and 4. A few
// planes are transformed, and what they contribute to every block is sent
// while the next few are transformed — one loop, exchange, run twice.
//
// # The exchange
//
// A block is h1×h2 rows of N3 values, and geom.rows is the only code that
// knows where they lie. The sender's planes cut it into contiguous runs
// (forward, plane i1 of the slab holds the block's h2 rows (i1, ·); back,
// plane i2 of the transposed buffer its h1 rows (·, i2)), and it crosses as
// pieces: as many whole planes as fit bufpool.PieceBytes, so that every
// frame on the path is one the buffer pool recycles. A block smaller than that is
// one piece; there is no whole-block form beside the pieces. A piece
// crosses with one pass per side and no buffer of its own: the sender
// gathers its rows out of the planes it has just transformed — they are
// still in cache — straight into the request frame, the receiver's
// storeBlock scatters them out of the frame straight into its other
// buffer. A worker's own block is neither sent nor copied: its rows stay
// in the slab, where the forward phase leaves them and the back phase
// transforms them through a window (geom.axis1), and its rows of tr are
// unused. So a worker alone moves no byte, and a group moves only peer
// rows. The sends are a rmi.SplitLoop over pieces × peers, the §4 split
// loop like every other transfer in the repo, whose issue step is where a
// piece's planes are transformed: a call is on the wire, and being placed by
// the peer, while the planes of the next are computed — by the method's
// goroutine and, the worker being a process with a machine to itself, by
// helpers on the machine's other processors (rmi.Share, the fork-join a page
// device's kernel batch uses), each claiming one plane at a time. The
// helpers are joined before the piece is gathered. A worker with no peers
// has no frame to keep small and no send to overlap: its phase is one
// piece, shared in one fork-join. Load and Gather move the slabs in pieces
// too.
//
// storeBlock is a concurrent method (see rmi package doc): every worker
// is inside its serial transform method during the exchange, so the data
// pushes must bypass the mailbox or the group would deadlock. It therefore
// writes into slab and tr while transform is running — computing planes,
// not only gathering them — and what keeps the two apart is an arrival
// table under mu. It is a table of permissions:
// open[phase][v] says that the rows this worker shares with v are v's to
// fill with the pieces of its block of that phase. A piece of v's back
// block lands across every i1-plane of the slab, and one of its forward
// block across every i2-plane of tr, so the rows are given up together and
// late: the transform method opens the slot when it has gathered the last
// piece of the other phase for v — by then every plane has been
// transformed, and the rows it read for v are exactly the ones v's answer
// lands in (setGroup opens the forward slots, tr being idle). Until then a
// piece from v is refused, so one that arrives while the receiver is still
// transforming cannot touch a row in use: the planes still to be
// transformed belong to a slot that is closed. storeBlock marks the planes
// of a piece under mu before it writes a byte (got), refuses a plane that
// is marked, closes the slot with the block's last plane, and counts the
// planes as landed when their rows are in; an exchange ends by waiting for
// peers × planes. So every access of the transform method to rows a peer
// may write is separated from that write by mu, on both sides — and every
// access of a helper, which takes no lock: it lives between a fork and a
// join on the method's goroutine, inside planes whose slot is closed, and
// only that goroutine opens a slot, after the join. A worker's own rows
// have no slot: they are never sent or landed, no peer's piece targets them
// (admit refuses a piece from the worker itself), and only this worker's
// back-phase compute touches them, on the method's goroutine and its
// helpers, inside planes whose peers' rows lie elsewhere in the slab.
// Between honest workers the table never refuses: v cannot answer a block
// before all of it was sent. But that order is carried by the socket, where
// neither the memory model nor the race detector can see it; the table
// states it where both can.
//
// A piece is accepted whole or refused whole. Phase, sender, the presence
// of every announced byte, the count (whole planes, at least one), the
// plane range (inside the block), the slot and the planes' marks are all
// checked before anything is written, and a refusal leaves slab and tr
// bitwise as they were. A piece for a closed slot — of a block that is
// complete, or for rows not yet given up — is refused rather than kept for
// later: there is no staging area to keep it in, and placing it would
// overwrite rows the transform is still reading.
package pfft

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// worker is the server-side FFT process.
type worker struct {
	id int

	// mu guards what setGroup installs and the arrival state below; see
	// the package doc for how it orders storeBlock against transform.
	mu   sync.Mutex
	cond *sync.Cond

	geom  // the dims from birth; p, h1, h2 are 0 until setGroup
	peers []rmi.Ref
	slab  []complex128 // layout A: [h1][n2][n3]
	tr    []complex128 // layout B: [h2][n1][n3]

	open   [2][]bool   // phase -> sender -> pieces of its block may be placed
	got    [2][][]bool // phase -> sender -> plane of its block -> placed, or being placed, since the slot opened
	landed [2]int      // phase -> planes placed since the last exchange ended
}

func newWorker(id, n1, n2, n3 int) (*worker, error) {
	if n1 <= 0 || n2 <= 0 || n3 <= 0 {
		return nil, fmt.Errorf("pfft: invalid dims %dx%dx%d", n1, n2, n3)
	}
	w := &worker{id: id, geom: geom{n1: n1, n2: n2, n3: n3}}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// setGroup installs the member table and sizes the buffers. It mirrors
// the paper's deep-copy SetGroup: the refs arrive by value, so later peer
// access costs no extra round trips.
func (w *worker) setGroup(n int, refs []rmi.Ref) error {
	if n != len(refs) {
		return fmt.Errorf("pfft: group size %d but %d refs", n, len(refs))
	}
	if w.id < 0 || w.id >= n {
		return fmt.Errorf("pfft: worker id %d outside group of %d", w.id, n)
	}
	g, err := newGeom(n, w.n1, w.n2, w.n3)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.geom = g
	w.peers = refs
	w.slab = make([]complex128, g.slabLen())
	w.tr = make([]complex128, g.trLen())
	for phase := range w.open {
		count, _ := g.planes(phase)
		w.open[phase] = make([]bool, n)
		w.got[phase] = make([][]bool, n)
		for v := range w.got[phase] {
			w.got[phase][v] = make([]bool, count)
		}
	}
	for v := range w.open[phaseForward] {
		w.open[phaseForward][v] = v != w.id // tr is idle: forward pieces may land
	}
	w.landed = [2]int{}
	return nil
}

// bufs returns the buffer a phase's blocks are gathered from and the one
// they are scattered into.
func (w *worker) bufs(phase int) (src, dst []complex128) {
	if phase == phaseForward {
		return w.slab, w.tr
	}
	return w.tr, w.slab
}

// admit decides, with mu held, whether the piece a storeBlock request
// announces — n values, planes lo and up of the block from sends in phase —
// may be placed, and if so marks its planes [lo, hi) as taken.
func (w *worker) admit(phase, from, lo, n int) (hi int, err error) {
	if phase != phaseForward && phase != phaseBack {
		return 0, fmt.Errorf("pfft: piece for phase %d", phase)
	}
	if from < 0 || from >= len(w.open[phase]) || from == w.id {
		return 0, fmt.Errorf("pfft: worker %d: piece from worker %d of %d", w.id, from, len(w.open[phase]))
	}
	count, blockPlane := w.planes(phase)
	if n <= 0 || n%blockPlane != 0 {
		return 0, fmt.Errorf("pfft: phase %d piece from %d has %d elements, not whole planes of %d", phase, from, n, blockPlane)
	}
	if lo < 0 || lo > count-n/blockPlane {
		return 0, fmt.Errorf("pfft: phase %d piece from %d is planes %d+%d of %d", phase, from, lo, n/blockPlane, count)
	}
	hi = lo + n/blockPlane
	got := w.got[phase][from]
	switch {
	case !w.open[phase][from]:
		return 0, fmt.Errorf("pfft: worker %d: phase %d piece from %d refused: its block is complete, or its rows are still in use", w.id, phase, from)
	case slices.Contains(got[lo:hi], true):
		return 0, fmt.Errorf("pfft: worker %d: phase %d piece from %d refused: a plane of [%d, %d) a second time", w.id, phase, from, lo, hi)
	}
	for i := lo; i < hi; i++ {
		got[i] = true
	}
	if !slices.Contains(got, false) { // the block's last planes: nothing more may come
		w.open[phase][from] = false
		clear(got)
	}
	return hi, nil
}

// storeBlock places the piece of a transpose block in args — phase,
// sender, first plane, packed values — that a peer pushed: frame -> rows,
// after every check and not at all if one fails (package doc). It runs as
// a concurrent method.
func (w *worker) storeBlock(args *wire.Decoder) error {
	phase, from, lo := args.Int(), args.Int(), args.Int()
	n := args.Complex128sLen() // 0 and an error unless every byte is there
	if err := args.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	hi, err := w.admit(phase, from, lo, n)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	_, dst := w.bufs(phase)
	w.scatter(args, phase, from, w.id, lo, hi, dst)
	w.mu.Lock()
	w.landed[phase] += hi - lo
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// exchange is one transpose, worked piece by piece with the arithmetic
// that precedes it: compute transforms a plane — of the source buffer, and
// in the back phase also this worker's own rows of the slab — the planes
// [lo, hi) of a piece shared among the machine's processors; then they are
// gathered into a storeBlock call to each peer, which is on its way while
// the next piece is transformed; the split loop settles the calls, two
// pieces to every peer outstanding at most, so a receiver never holds more
// frames than the pool keeps. Then a wait until every plane of every peer's
// block has landed here. Alone, a worker's phase is one piece.
func (w *worker) exchange(env *rmi.Env, phase int, compute func(plane int) error) error {
	src, _ := w.bufs(phase)
	count, blockPlane := w.planes(phase)
	parts := cutPlanes(count, blockPlane)
	peers := w.p - 1
	if peers == 0 {
		parts.per = count // nothing crosses: the phase is one piece, one fork-join
	}
	if peers > 0 && env.Client == nil {
		return fmt.Errorf("pfft: machine %d has no outbound client", env.Machine)
	}
	ready := 0 // pieces transformed
	var failed error
	readyThrough := func(k int) {
		for ; ready <= k && failed == nil; ready++ {
			lo, hi := parts.piece(ready)
			failed = rmi.Share(hi-lo, 2*(hi-lo)*(len(src)/count), func(_, i int) error { return compute(lo + i) })
		}
	}
	err := rmi.SplitLoop(env.Ctx(), parts.pieces()*peers, 2*peers, func(i int) *rmi.Future {
		k, v := i/peers, i%peers
		if v >= w.id {
			v++
		}
		readyThrough(k)
		lo, hi := parts.piece(k)
		return workerStoreBlock.CallAsync(env.Ctx(), env.Client, w.peers[v], func(e *wire.Encoder) error {
			if failed != nil {
				return failed
			}
			e.PutInt(phase)
			e.PutInt(w.id)
			e.PutInt(lo)
			w.gather(e, phase, w.id, v, lo, hi, src)
			if hi == count {
				// Every row this worker shares with v has now been
				// read, and those are the rows v's block of the other
				// phase lands in: they are v's from here, and the
				// request has not left yet.
				w.mu.Lock()
				w.open[1-phase][v] = true
				w.mu.Unlock()
			}
			return nil
		})
	}, nil)
	if err != nil {
		return err
	}
	readyThrough(parts.pieces() - 1) // a worker alone made no call: its pieces are all still to do
	if failed != nil {
		return failed
	}
	w.mu.Lock()
	for w.landed[phase] < peers*count {
		w.cond.Wait()
	}
	w.landed[phase] = 0
	w.mu.Unlock()
	return nil
}

// transform runs the joint FFT protocol from this worker's perspective:
// each local phase feeds, plane by plane, the transpose that follows it.
func (w *worker) transform(env *rmi.Env, sign int) error {
	if w.p == 0 {
		return fmt.Errorf("pfft: transform before setGroup")
	}
	if sign != -1 && sign != +1 {
		return fmt.Errorf("pfft: transform sign %d, want -1 or +1", sign)
	}
	err := w.exchange(env, phaseForward, func(i1 int) error { return w.axis23(w.slab, i1, sign) })
	if err != nil {
		return err
	}
	return w.exchange(env, phaseBack, func(i2 int) error { return w.axis1(w.tr, w.slab, w.id, i2, sign) })
}

// slabPlanes checks that [lo, hi) is a non-empty run of this worker's
// slab planes — what loadSlab and readSlab move — and returns its values.
func (w *worker) slabPlanes(lo, hi int) ([]complex128, error) {
	if lo < 0 || hi <= lo || hi > w.h1 {
		return nil, fmt.Errorf("pfft: worker %d: slab planes [%d, %d) of %d", w.id, lo, hi, w.h1)
	}
	plane := w.n2 * w.n3
	return w.slab[lo*plane : hi*plane], nil
}

// refTable is a tiny holder process used by the shallow SetGroup variant
// (experiment E11): it owns the group's remote pointer array, and workers
// fetch members one remote call at a time — the §4 anti-pattern. Like
// NewShallow it stays as E11's subject, whose cells are pinned.
type refTable struct {
	refs []rmi.Ref
}

// workerClass is the typed handle to the FFT worker class; plan.go
// spawns the worker collection through it.
var workerClass = rmi.RegisterClass("pfft.Worker", workerCodec, func(env *rmi.Env, a workerArgs) (*worker, error) {
	return newWorker(a.id, a.n1, a.n2, a.n3)
})

// workerArgs is the worker's constructor argument: its id in the group,
// and the dims.
type workerArgs struct{ id, n1, n2, n3 int }

var workerCodec = wire.CodecOf(
	func(e *wire.Encoder, a workerArgs) { e.PutInt(a.id); e.PutInt(a.n1); e.PutInt(a.n2); e.PutInt(a.n3) },
	func(d *wire.Decoder) workerArgs { return workerArgs{d.Int(), d.Int(), d.Int(), d.Int()} })

// groupArgs is the argument of setGroup: the n workers' refs.
type groupArgs struct {
	n    int
	refs []rmi.Ref
}

var groupCodec = wire.CodecOf(
	func(e *wire.Encoder, g groupArgs) { e.PutInt(g.n); e.PutRefs(g.refs) },
	func(d *wire.Decoder) groupArgs { return groupArgs{d.Int(), d.Refs()} })

// The worker's methods: group setup, slab transfers, the joint transform
// and the concurrent landing of a peer's transpose block.
var (
	workerSetGroup = rmi.DeclareOp(workerClass, "setGroup", groupCodec, wire.Void, func(w *worker, env *rmi.Env, g groupArgs) (struct{}, error) {
		return struct{}{}, w.setGroup(g.n, g.refs)
	})
	workerSetGroupShallow = rmi.DeclareOp(workerClass, "setGroupShallow", wire.RemoteRef, wire.Void, func(w *worker, env *rmi.Env, table rmi.Ref) (struct{}, error) {
		// The §4 anti-pattern: the argument is a remote pointer to a
		// table of remote pointers; every member access is a further
		// round trip.
		if env.Client == nil {
			return struct{}{}, fmt.Errorf("pfft: machine %d has no outbound client", env.Machine)
		}
		n, err := tableSize.Call(context.Background(), env.Client, table, struct{}{})
		if err != nil {
			return struct{}{}, err
		}
		refs := make([]rmi.Ref, n)
		for i := range refs {
			if refs[i], err = tableGetRef.Call(context.Background(), env.Client, table, i); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, w.setGroup(n, refs)
	})
	workerLoadSlab = workerClass.Declare("loadSlab", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		// First plane, then whole planes of values: range and count
		// are checked before one value is stored.
		lo := args.Int()
		n := args.Complex128sLen()
		if err := args.Err(); err != nil {
			return err
		}
		plane := w.n2 * w.n3
		if n == 0 || n%plane != 0 {
			return fmt.Errorf("pfft: worker %d: loadSlab of %d elements, not whole planes of %d", w.id, n, plane)
		}
		dst, err := w.slabPlanes(lo, lo+n/plane)
		if err != nil {
			return err
		}
		args.CopyComplex128s(dst)
		return nil
	})
	workerReadSlab = workerClass.Declare("readSlab", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		lo, hi := args.Int(), args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		src, err := w.slabPlanes(lo, hi)
		if err != nil {
			return err
		}
		reply.PutComplex128s(src)
		return nil
	})
	workerTransform = rmi.DeclareOp(workerClass, "transform", wire.Int, wire.Void, func(w *worker, env *rmi.Env, sign int) (struct{}, error) {
		return struct{}{}, w.transform(env, sign)
	})
	workerStoreBlock = workerClass.DeclareConcurrent("storeBlock", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		return w.storeBlock(args)
	})
)

// refTableClass is constructed from the refs it holds.
var refTableClass = rmi.RegisterClass("pfft.RefTable", wire.CodecOf((*wire.Encoder).PutRefs, (*wire.Decoder).Refs),
	func(env *rmi.Env, refs []rmi.Ref) (*refTable, error) { return &refTable{refs: refs}, nil })

// The table's methods, each a further round trip of the shallow setGroup.
var (
	tableSize = rmi.DeclareOp(refTableClass, "size", wire.Void, wire.Int, func(t *refTable, env *rmi.Env, _ struct{}) (int, error) {
		return len(t.refs), nil
	})
	tableGetRef = rmi.DeclareOp(refTableClass, "getRef", wire.Int, wire.RemoteRef, func(t *refTable, env *rmi.Env, i int) (rmi.Ref, error) {
		if i < 0 || i >= len(t.refs) {
			return rmi.Ref{}, fmt.Errorf("pfft: ref index %d of %d", i, len(t.refs))
		}
		return t.refs[i], nil
	})
)
