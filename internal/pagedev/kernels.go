package pagedev

// The device-side halves of the owner-computes array surface that are
// not the kernel engine itself (pipeline.go): the row engine every
// method walks pages with, the device-to-device operand/halo pull lane,
// and the transfer primitives (pullSubBatch, copyPages).
//
// Method concurrency classes (they matter — see the mailbox rules in
// the rmi package doc):
//
//	applyPipelineK            serial (uses the object's page buffers);
//	                          the ONE kernel executor — every array
//	                          collective is a stage chain through it
//	pullSubBatch, copyPages   serial; pullSubBatch pulls peer regions
//	                          device-to-device
//	readSubBatch              CONCURRENT: serves peer pulls while this
//	                          object's mailbox is busy (two devices
//	                          mid-sweep can exchange halos and operands
//	                          without deadlock); uses only caller-owned
//	                          buffers
//
// Batches are not transactional: a mid-batch failure leaves earlier
// regions applied. The one all-or-nothing guarantee is the migration
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
	lo  [3]int
	dim [3]int
}

func (r subReq) size() int { return r.dim[0] * r.dim[1] * r.dim[2] }

// reqIndices projects a region batch to its page indices, for the
// migration-fence pre-scan.
func reqIndices(reqs []subReq) []int {
	idx := make([]int, len(reqs))
	for i, rq := range reqs {
		idx[i] = rq.idx
	}
	return idx
}

// forEachRow visits the contiguous axis-3 runs of a sub-box within an
// n1×n2×n3 page buffer.
func forEachRow(elems []float64, n2, n3 int, lo, dim [3]int, fn func(row []float64)) {
	for i := 0; i < dim[0]; i++ {
		for j := 0; j < dim[1]; j++ {
			off := ((lo[0]+i)*n2+(lo[1]+j))*n3 + lo[2]
			fn(elems[off : off+dim[2]])
		}
	}
}

// forEachRun is the stride-aware row engine: it visits the same
// elements as forEachRow, in the same order, but coalesces rows that
// are adjacent in memory into maximal contiguous runs — whole j-planes
// when the box spans full axis-3 rows, the whole page as one flat
// []float64 slab when it spans full planes. Kernels then run one long
// sequential loop instead of dim[0]*dim[1] short ones: the per-call
// overhead vanishes and the inner loops auto-vectorize. Element order
// is preserved exactly, so sequential folds (sum, dot) stay bitwise
// identical to the row-at-a-time schedule.
func forEachRun(elems []float64, n2, n3 int, lo, dim [3]int, fn func(run []float64)) {
	if lo[2] == 0 && dim[2] == n3 {
		if lo[1] == 0 && dim[1] == n2 {
			off := lo[0] * n2 * n3
			fn(elems[off : off+dim[0]*n2*n3])
			return
		}
		for i := 0; i < dim[0]; i++ {
			off := ((lo[0]+i)*n2 + lo[1]) * n3
			fn(elems[off : off+dim[1]*n3])
		}
		return
	}
	forEachRow(elems, n2, n3, lo, dim, fn)
}

// gatherRowsFromBytes unpacks just the rows of a sub-box straight from
// little-endian page bytes into dst, row-major — the halo-serving hot
// path converts O(box) elements, not O(page) (a halo plane is 1/n1 of
// its page). Contiguous boxes (full axis-3 rows) convert as one run per
// plane instead of one per row, same stride-aware coalescing as
// forEachRun.
func gatherRowsFromBytes(page []byte, n2, n3 int, lo, dim [3]int, dst []float64) error {
	if lo[2] == 0 && dim[2] == n3 {
		pos := 0
		runLen := dim[1] * n3
		for i := 0; i < dim[0]; i++ {
			off := ((lo[0]+i)*n2 + lo[1]) * n3
			if err := BytesToFloat64s(dst[pos:pos+runLen], page[8*off:8*(off+runLen)]); err != nil {
				return err
			}
			pos += runLen
		}
		return nil
	}
	pos := 0
	for i := 0; i < dim[0]; i++ {
		for j := 0; j < dim[1]; j++ {
			off := ((lo[0]+i)*n2+(lo[1]+j))*n3 + lo[2]
			if err := BytesToFloat64s(dst[pos:pos+dim[2]], page[8*off:8*(off+dim[2])]); err != nil {
				return err
			}
			pos += dim[2]
		}
	}
	return nil
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

// Minimum encoded sizes, in bytes, of one batch element of each method:
// every varint, bool and length prefix is at least one byte, and a
// sub-box is an index plus six ints.
const (
	minSubBox   = 7
	minPullElem = minSubBox + 1 // + peerIdx
	minCopyElem = 2             // src, dst
)

// serveSub gathers the row-packed values of one region of this
// device's page rq.idx into dst, through buf (one page of bytes). It
// reads the thread-safe store directly, so it runs outside the mailbox:
// the body of the concurrent readSubBatch method and of a co-located
// peer's fetch.
func (a *arrayPageDevice) serveSub(rq subReq, buf []byte, dst []float64) error {
	if rq.size() == 0 {
		return nil
	}
	if err := a.readInto(rq.idx, buf); err != nil {
		return err
	}
	return gatherRowsFromBytes(buf, a.n2, a.n3, rq.lo, rq.dim, dst)
}

// fetchSubBatch pulls the row-packed values of each request from a peer
// device into the caller-owned dst slices (dst[i] must have size
// reqs[i].size()) and waits for them — see fetchSubBatchAsync.
func (a *arrayPageDevice) fetchSubBatch(env *rmi.Env, peer rmi.Ref, reqs []subReq, dst [][]float64) error {
	return a.fetchSubBatchAsync(env, peer, reqs, dst)()
}

// fetchSubBatchAsync begins the pull and returns a wait function that
// fills dst and reports the outcome. Remote peers are served by their
// concurrent readSubBatch method, so a peer that is itself mid-method
// still answers — this is what lets two devices exchange halos while
// both are inside a sweep, and what lets the caller post its pulls,
// compute on data it already holds, and only join when it needs the
// edges. Co-located peers are read directly through their thread-safe
// store: there is no latency to hide, so their pull completes before
// returning and the wait is a no-op.
func (a *arrayPageDevice) fetchSubBatchAsync(env *rmi.Env, peer rmi.Ref, reqs []subReq, dst [][]float64) (wait func() error) {
	done := func(err error) func() error { return func() error { return err } }
	if len(reqs) == 0 {
		return done(nil)
	}
	if local, ok := localArrayDevice(env, peer); ok {
		buf := make([]byte, local.pageSize)
		for i, rq := range reqs {
			if err := local.serveSub(rq, buf, dst[i]); err != nil {
				return done(err)
			}
		}
		return done(nil)
	}
	if env.Client == nil {
		return done(fmt.Errorf("pagedev: machine %d has no outbound client", env.Machine))
	}
	fut := env.Client.CallAsync(env.Ctx(), peer, "readSubBatch", func(e *wire.Encoder) error {
		e.PutInt(len(reqs))
		for _, rq := range reqs {
			putSubBox(e, rq.idx, SubBox{Lo: rq.lo, Dim: rq.dim})
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

// registerTransferMethods installs the peer-pull lane and the transfer
// primitives on the ArrayPageDevice class.
func registerTransferMethods(c *rmi.Class[*arrayPageDevice]) {
	// readSubBatch(count, count×(idx, box)): serve the row-packed values
	// of each region. CONCURRENT — runs outside the mailbox with its own
	// buffers, so this device can serve peer pulls (halo planes, binary
	// operands) even while one of its own serial methods is running.
	c.ConcurrentMethod("readSubBatch", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		count, err := decodeCount(args, minSubBox)
		if err != nil {
			return err
		}
		buf := make([]byte, a.pageSize)
		var out []float64
		for n := 0; n < count; n++ {
			idx := args.Int()
			lo, dim, err := a.decodeSubBox(args)
			if err != nil {
				return err
			}
			rq := subReq{idx: idx, lo: lo, dim: dim}
			size := rq.size()
			if cap(out) < size {
				out = make([]float64, size)
			}
			if err := a.serveSub(rq, buf, out[:size]); err != nil {
				return err
			}
			reply.PutFloat64s(out[:size])
		}
		return nil
	})

	// pullSubBatch(peerRef, count, count×(localIdx, box, peerIdx)):
	// overwrite each local region with the co-indexed region pulled from
	// the peer device — the owner-computes transfer primitive (the §5
	// copyFrom generalized from whole page runs to sub-box batches
	// between two distributed arrays). One peer per call; the client
	// groups regions by (destination device, source device).
	c.Method("pullSubBatch", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		peer := args.Ref()
		count, err := decodeCount(args, minPullElem)
		if err != nil {
			return err
		}
		reqs := make([]subReq, 0, count)
		local := make([]subReq, 0, count)
		for n := 0; n < count; n++ {
			idx := args.Int()
			lo, dim, err := a.decodeSubBox(args)
			if err != nil {
				return err
			}
			peerIdx := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			local = append(local, subReq{idx: idx, lo: lo, dim: dim})
			reqs = append(reqs, subReq{idx: peerIdx, lo: lo, dim: dim})
		}
		if err := a.checkFenceBatch(reqIndices(local)); err != nil {
			return err
		}
		// One batched pull for the whole call, then scatter locally.
		vals := make([][]float64, len(reqs))
		for i, rq := range reqs {
			vals[i] = make([]float64, rq.size())
		}
		if err := a.fetchSubBatch(env, peer, reqs, vals); err != nil {
			return err
		}
		touched := 0
		for i, lr := range local {
			if lr.size() == 0 {
				continue
			}
			if err := a.loadPage(lr.idx); err != nil {
				return err
			}
			pos := 0
			forEachRun(a.elems, a.n2, a.n3, lr.lo, lr.dim, func(run []float64) {
				copy(run, vals[i][pos:pos+len(run)])
				pos += len(run)
			})
			if err := a.storePage(lr.idx); err != nil {
				return err
			}
			touched += lr.size()
		}
		reply.PutVarint(int64(touched))
		return nil
	})

	// copyPages(count, count×(srcIdx, dstIdx)): device-local page copies
	// (bank moves of the owner-computes Jacobi; no data leaves the
	// device).
	c.Method("copyPages", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		count, err := decodeCount(args, minCopyElem)
		if err != nil {
			return err
		}
		pairs := make([][2]int, 0, count)
		dsts := make([]int, 0, count)
		for n := 0; n < count; n++ {
			src := args.Int()
			dst := args.Int()
			if err := args.Err(); err != nil {
				return err
			}
			pairs = append(pairs, [2]int{src, dst})
			dsts = append(dsts, dst)
		}
		if err := a.checkFenceBatch(dsts); err != nil {
			return err
		}
		for _, p := range pairs {
			if err := a.readInto(p[0], a.scratch); err != nil {
				return err
			}
			if err := a.write(p[1], a.scratch); err != nil {
				return err
			}
		}
		return nil
	})
}
