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
// # The exchange
//
// A block is h1×h2 rows of N3 values, and geom.rows is the only code that
// knows where they lie. It crosses with one pass per side and no buffer of
// its own: the sender gathers the rows out of its slab straight into the
// request frame, the receiver's storeBlock scatters them out of the frame
// straight into its transposed buffer (and the other way round on the way
// back); a worker's own block is one strided copy. The sends are a
// rmi.SplitLoop over the peers, the §4 split loop like every other
// transfer in the repo.
//
// storeBlock is a concurrent method (see rmi package doc): every worker
// is inside its serial transform method during the exchange, so the data
// pushes must bypass the mailbox or the group would deadlock. It therefore
// writes into slab and tr while transform is running, and what keeps the
// two apart is an arrival table under mu: open[phase][v] says that the rows
// this worker shares with v are v's to fill with its block of that phase.
// The transform method opens a slot when it has finished with those rows —
// having gathered them for v in the phase before (the rows it reads for
// v's forward block are the ones v's back block lands in, and the reverse;
// setGroup opens the forward slots, tr being idle) — and storeBlock closes
// it before it writes a byte, then counts the block as landed when the
// last row is in; an exchange ends by waiting for the count. So every
// access of the transform method to rows a peer may write is separated
// from that write by mu, on both sides. Between honest workers the table
// never refuses: v cannot answer a block before it was sent. But that
// order is carried by the socket, where neither the memory model nor the
// race detector can see it; the table states it where both can.
//
// A block is accepted whole or refused whole. Phase, sender, count, the
// presence of every announced byte and the slot are all checked before
// anything is written, and a refusal leaves slab and tr bitwise as they
// were. A block for a closed slot — a second one from the same sender, or
// one for rows not yet given up — is refused rather than kept for later:
// there is no staging area to keep it in, and placing it would overwrite
// rows the transform is still reading.
package pfft

import (
	"context"
	"fmt"
	"sync"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// ClassWorker is the registered class name of the FFT worker process.
const ClassWorker = "pfft.Worker"

// ClassRefTable is a tiny holder process used by the shallow SetGroup
// variant (experiment E11): it owns the group's remote pointer array, and
// workers fetch members one remote call at a time — the §4 anti-pattern.
const ClassRefTable = "pfft.RefTable"

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

	open   [2][]bool // phase -> sender -> its block may be placed
	landed [2]int    // phase -> blocks placed since the last exchange ended
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
	w.open = [2][]bool{make([]bool, n), make([]bool, n)}
	for v := range w.open[phaseForward] {
		w.open[phaseForward][v] = v != w.id // tr is idle: forward blocks may land
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

// storeBlock places the transpose block in args — phase, sender, packed
// block — that a peer pushed: frame -> rows, after every check and not at
// all if one fails (package doc). It runs as a concurrent method.
func (w *worker) storeBlock(args *wire.Decoder) error {
	phase, from := args.Int(), args.Int()
	n := args.Complex128sLen() // 0 and an error unless every byte is there
	if err := args.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	var err error
	switch {
	case phase != phaseForward && phase != phaseBack:
		err = fmt.Errorf("pfft: block for phase %d", phase)
	case from < 0 || from >= len(w.open[phase]) || from == w.id:
		err = fmt.Errorf("pfft: worker %d: block from worker %d of %d", w.id, from, len(w.open[phase]))
	case n != w.blockLen():
		err = fmt.Errorf("pfft: phase %d block from %d has %d elements, want %d", phase, from, n, w.blockLen())
	case !w.open[phase][from]:
		err = fmt.Errorf("pfft: worker %d: phase %d block from %d refused: a second one, or its rows are still in use", w.id, phase, from)
	default:
		w.open[phase][from] = false
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	_, dst := w.bufs(phase)
	w.scatter(args, phase, from, w.id, dst)
	w.mu.Lock()
	w.landed[phase]++
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// exchange is one transpose: this worker's own block copied across, its
// block for each peer gathered into a storeBlock call (all in flight at
// once, settled by the split loop), and a wait until every peer's block
// has landed here.
func (w *worker) exchange(env *rmi.Env, phase int) error {
	src, dst := w.bufs(phase)
	w.rows(phase, w.id, w.id, func(s, d int) { copy(dst[d:d+w.n3], src[s:s+w.n3]) })
	peers := w.p - 1
	if peers > 0 && env.Client == nil {
		return fmt.Errorf("pfft: machine %d has no outbound client", env.Machine)
	}
	err := rmi.SplitLoop(env.Ctx(), peers, peers, func(i int) *rmi.Future {
		v := i
		if v >= w.id {
			v++
		}
		return env.Client.CallAsync(env.Ctx(), w.peers[v], "storeBlock", func(e *wire.Encoder) error {
			e.PutInt(phase)
			e.PutInt(w.id)
			w.gather(e, phase, w.id, v, src)
			// The rows just read are the ones v's block of the other
			// phase lands in: they are v's from here, and the request
			// has not left yet.
			w.mu.Lock()
			w.open[1-phase][v] = true
			w.mu.Unlock()
			return nil
		})
	}, nil)
	if err != nil {
		return err
	}
	w.mu.Lock()
	for w.landed[phase] < peers {
		w.cond.Wait()
	}
	w.landed[phase] = 0
	w.mu.Unlock()
	return nil
}

// transform runs the joint FFT protocol from this worker's perspective.
func (w *worker) transform(env *rmi.Env, sign int) error {
	if w.p == 0 {
		return fmt.Errorf("pfft: transform before setGroup")
	}
	if err := w.axis23(w.slab, sign); err != nil {
		return err
	}
	if err := w.exchange(env, phaseForward); err != nil {
		return err
	}
	if err := w.axis1(w.tr, sign); err != nil {
		return err
	}
	return w.exchange(env, phaseBack)
}

// refTable is the holder process for the shallow SetGroup experiment.
type refTable struct {
	refs []rmi.Ref
}

// workerClass is the typed handle to the FFT worker class; plan.go
// spawns the worker collection through it.
var workerClass = registerWorkerClass()

func registerWorkerClass() *rmi.Class[*worker] {
	return rmi.RegisterClass(ClassWorker, func(env *rmi.Env, args *wire.Decoder) (*worker, error) {
		id := args.Int()
		n1, n2, n3 := args.Int(), args.Int(), args.Int()
		if err := args.Err(); err != nil {
			return nil, err
		}
		return newWorker(id, n1, n2, n3)
	}).
		Method("setGroup", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			n := args.Int()
			refs := args.Refs()
			if err := args.Err(); err != nil {
				return err
			}
			return w.setGroup(n, refs)
		}).
		Method("setGroupShallow", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			// The §4 anti-pattern: the argument is a remote pointer to a
			// table of remote pointers; every member access is a further
			// round trip.
			table := args.Ref()
			if err := args.Err(); err != nil {
				return err
			}
			if env.Client == nil {
				return fmt.Errorf("pfft: machine %d has no outbound client", env.Machine)
			}
			d, err := env.Client.Call(context.Background(), table, "size", nil)
			if err != nil {
				return err
			}
			n := d.Int()
			err = d.Err()
			d.Release()
			if err != nil {
				return err
			}
			refs := make([]rmi.Ref, n)
			for i := 0; i < n; i++ {
				d, err := env.Client.Call(context.Background(), table, "getRef", func(e *wire.Encoder) error {
					e.PutInt(i)
					return nil
				})
				if err != nil {
					return err
				}
				refs[i] = d.Ref()
				err = d.Err()
				d.Release()
				if err != nil {
					return err
				}
			}
			return w.setGroup(n, refs)
		}).
		Method("loadSlab", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			args.Complex128sInto(w.slab)
			return args.Err()
		}).
		Method("readSlab", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutComplex128s(w.slab)
			return nil
		}).
		Method("transform", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			sign := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			return w.transform(env, sign)
		}).
		ConcurrentMethod("storeBlock", func(w *worker, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			return w.storeBlock(args)
		})
}

func init() {
	rmi.RegisterClass(ClassRefTable, func(env *rmi.Env, args *wire.Decoder) (*refTable, error) {
		refs := args.Refs()
		if err := args.Err(); err != nil {
			return nil, err
		}
		return &refTable{refs: refs}, nil
	}).
		Method("size", func(t *refTable, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutInt(len(t.refs))
			return nil
		}).
		Method("getRef", func(t *refTable, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			i := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			if i < 0 || i >= len(t.refs) {
				return fmt.Errorf("pfft: ref index %d of %d", i, len(t.refs))
			}
			reply.PutRef(t.refs[i])
			return nil
		})
}
