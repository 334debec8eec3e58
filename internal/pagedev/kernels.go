package pagedev

// The device-side halves of the owner-computes array surface that are
// not the kernel engine itself (pipeline.go): the row engine every
// method walks pages with and the device-to-device operand/halo read
// lane.
//
// Method concurrency classes (they matter — see the mailbox rules in
// the rmi package doc):
//
//	applyPipelineK   serial AS A METHOD, parallel inside (workers share a
//	                 piece's regions); the ONE kernel executor: every
//	                 collective, per-page sum and fill and page copy is a
//	                 chain through it
//	readSubBatch     CONCURRENT: serves peer reads while this object's
//	                 mailbox is busy (two devices mid-sweep can exchange
//	                 halos and operands without deadlock)
//
// Every one of them reaches elements through the device's page accessor
// (withPages, device.go): on a resident store serial methods mutate the
// page itself and the concurrent lane reads it, and the disk's contents
// lock keeps the two apart. It is per byte range and held for ONE access
// to ONE page — a page's stage chain, a page's copy-out — so a reader sees
// each page wholly before or wholly after a chain, never between two of
// its stages or torn, and two workers on two pages do not wait for each
// other; it does not make a batch atomic. Beside its own page an access
// holds, read-only, the co-located operand pages its chain reads whose lock
// was free when tried: a holder of a contents lock waits for nothing, not a
// fetch and not a second lock. So the engine fetches a piece's remote values
// before any worker enters anything, and a worker first copies out an
// operand page it cannot have beside its own — so a device can be its own
// operand (self-dot, x.Axpy(x), a bank move) and two devices read each
// other mid-batch.
//
// Batches are not transactional: a mid-batch failure leaves an unspecified
// subset of the other regions applied — a failed fetch, the pieces before
// it — and a kernel that panics leaves its own resident page as far as it
// got. The one all-or-nothing guarantee is the migration
// fence (fence.go): every mutating batch pre-scans its destination
// pages and refuses the WHOLE batch typed (rmi.ErrFenced) if any is
// mid-migration, so a caller can replay the identical batch after the
// page map flips without double-applying a kernel.
//
// Every batch count is read off a socket, so it is bounded by what the
// rest of the frame can hold before anything is allocated from it
// (decodeCount): a six-byte varint must not be able to ask for a
// terabyte.

import (
	"context"
	"fmt"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// subReq addresses one sub-box of one page for a batched read.
type subReq struct {
	idx int
	SubBox
}

// forEachRun is the stride-aware row engine: it visits the elements of
// a sub-box of an n1×n2×n3 page buffer in row-major order, as maximal
// contiguous runs of n elements from offset off — axis-3 rows in general,
// whole j-planes when the box spans full rows, the whole page as one flat
// slab when it spans full planes — so two pages cut alike are walked in
// step. Kernels then run one long sequential loop instead of dim[0]*dim[1]
// short ones: the per-call overhead vanishes and the inner loops
// auto-vectorize. Element order never changes, so sequential
// folds (sum, dot) are bitwise independent of the coalescing.
func forEachRun(n2, n3 int, lo, dim [3]int, fn func(off, n int)) {
	if lo[2] == 0 && dim[2] == n3 {
		if lo[1] == 0 && dim[1] == n2 {
			fn(lo[0]*n2*n3, dim[0]*n2*n3)
			return
		}
		for i := 0; i < dim[0]; i++ {
			fn(((lo[0]+i)*n2+lo[1])*n3, dim[1]*n3)
		}
		return
	}
	for i := 0; i < dim[0]; i++ {
		for j := 0; j < dim[1]; j++ {
			fn(((lo[0]+i)*n2+(lo[1]+j))*n3+lo[2], dim[2])
		}
	}
}

// gatherRuns copies a sub-box of a page buffer into dst, row-packed;
// scatterRuns is its inverse. Both move whole runs (forEachRun).
func gatherRuns(dst, elems []float64, n2, n3 int, lo, dim [3]int) {
	pos := 0
	forEachRun(n2, n3, lo, dim, func(off, n int) { pos += copy(dst[pos:], elems[off:off+n]) })
}

func scatterRuns(elems []float64, n2, n3 int, lo, dim [3]int, src []float64) {
	pos := 0
	forEachRun(n2, n3, lo, dim, func(off, n int) { pos += copy(elems[off:off+n], src[pos:]) })
}

// decodeCount reads a batch's element count and bounds it by the bytes
// left in the frame: each element encodes to at least minElem bytes, so
// a larger (or negative) count cannot be honest and is refused before
// any slice is sized from it.
func decodeCount(args *wire.Decoder, minElem int) (int, error) {
	count := args.Int()
	if err := args.Err(); err != nil {
		return 0, err
	}
	if count < 0 || count > args.Remaining()/minElem {
		return 0, fmt.Errorf("pagedev: %w: batch count %d exceeds what %d remaining bytes can hold", wire.ErrCorrupt, count, args.Remaining())
	}
	return count, nil
}

// minSubBox is the minimum encoded size, in bytes, of a sub-box: every
// varint is at least one byte, and a sub-box is an index plus six ints.
const minSubBox = 7

// serveSub gathers the row-packed values of one region of this device's
// page rq.idx into dst. It only reads the page, so it runs outside the
// mailbox: a co-located peer's pull of a page it cannot read in place, its
// box checked against THIS device's pages as readSubBatch checks a remote's.
func (a *arrayPageDevice) serveSub(rq subReq, dst []float64) error {
	if !rq.within(a.page()) {
		return fmt.Errorf("pagedev: sub-box %+v outside page %v", rq.SubBox, a.page())
	}
	if rq.Size() == 0 {
		return nil
	}
	return a.withPage(rq.idx, readOnly, func(elems []float64) { gatherRuns(dst, elems, a.n2, a.n3, rq.Lo, rq.Dim) })
}

// fetchSubBatchAsync begins the pull of each request's row-packed
// values from a peer device into the caller-owned dst slices (dst[i] has
// size reqs[i].Size()) and returns a wait function that fills dst and
// reports the outcome. Remote peers are served by their concurrent
// readSubBatch method, so a peer that is itself mid-method still answers
// — two devices can exchange halos while both are inside a sweep, and
// the caller can post its pulls, compute on data it already holds, and
// join only when it needs the edges. Co-located peers are read directly:
// there is no latency to hide, so the wait is a no-op.
func (a *arrayPageDevice) fetchSubBatchAsync(env *rmi.Env, peer rmi.Ref, reqs []subReq, dst [][]float64) (wait func() error) {
	done := func(err error) func() error { return func() error { return err } }
	if len(reqs) == 0 {
		return done(nil)
	}
	if local, ok := localArrayDevice(env, peer); ok {
		for i, rq := range reqs {
			if err := local.serveSub(rq, dst[i]); err != nil {
				return done(err)
			}
		}
		return done(nil)
	}
	if env.Client == nil {
		return done(fmt.Errorf("pagedev: machine %d has no outbound client", env.Machine))
	}
	fut := devReadSubBatch.CallAsync(env.Ctx(), env.Client, peer, func(e *wire.Encoder) error {
		e.PutInt(len(reqs))
		for _, rq := range reqs {
			putSubBox(e, rq.idx, rq.SubBox)
		}
		return nil
	})
	return func() error {
		d, err := fut.Wait(context.Background())
		if err != nil {
			return err
		}
		defer d.Release()
		for i := range reqs {
			d.Float64sInto(dst[i])
		}
		return d.Err()
	}
}

// readSubBatch(count, count×(idx, box)): serve the row-packed values
// of each region. CONCURRENT — runs outside the mailbox, gathering each
// region straight into the reply under the page's read lock, so this device
// can serve peer pulls (halo planes, binary operands) even while one of its
// own serial methods is running.
func (a *arrayPageDevice) readSubBatch(env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
	count, err := decodeCount(args, minSubBox)
	if err != nil {
		return err
	}
	for ; count > 0; count-- {
		idx := args.Int()
		lo, dim, err := decodeSubBox(args, a.page())
		if err != nil {
			return err
		}
		reply.PutFloat64sLen(dim[0] * dim[1] * dim[2])
		if dim[0]*dim[1]*dim[2] == 0 {
			continue
		}
		err = a.withPage(idx, readOnly, func(elems []float64) {
			forEachRun(a.n2, a.n3, lo, dim, func(off, n int) { reply.AppendFloat64s(elems[off : off+n]) })
		})
		if err != nil {
			return err
		}
	}
	return nil
}
