package pfft

import (
	"context"
	"fmt"

	"oopp/internal/collection"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// PFFT is the master-side handle for a collection of FFT worker
// processes — the paper's "FFT * fft[N]" array plus the orchestration
// loops of §4, expressed as collectives over a typed Collection.
type PFFT struct {
	client  *rmi.Client
	workers *collection.Collection[*worker]
	geom
}

// New spawns one FFT worker process on each machine of machines and wires
// the group (deep-copy SetGroup). n1 and n2 must be divisible by the
// worker count.
func New(ctx context.Context, client *rmi.Client, machines []int, n1, n2, n3 int) (*PFFT, error) {
	return newPFFT(ctx, client, machines, n1, n2, n3, false)
}

// NewShallow is New with the §4 anti-pattern group setup (members fetched
// one remote call at a time through a RefTable process). It stays as
// experiment E11's subject — the measured side of §4's deep-copy advice,
// whose message counts internal/exp/testdata/pin.txt pins — rather than
// being folded into E11's own code; prefer New.
func NewShallow(ctx context.Context, client *rmi.Client, machines []int, n1, n2, n3 int) (*PFFT, error) {
	return newPFFT(ctx, client, machines, n1, n2, n3, true)
}

func newPFFT(ctx context.Context, client *rmi.Client, machines []int, n1, n2, n3 int, shallow bool) (*PFFT, error) {
	g, err := newGeom(len(machines), n1, n2, n3)
	if err != nil {
		return nil, err
	}
	// The master process creates N parallel processes, assigning ids (§4):
	// a typed collection spawn, placed by the explicit machine list.
	workers, err := collection.SpawnClass(ctx, client, collection.OnMachines(machines...), workerClass,
		func(m collection.Member) workerArgs { return workerArgs{m.Index, n1, n2, n3} })
	if err != nil {
		return nil, err
	}
	f := &PFFT{client: client, workers: workers, geom: g}

	if shallow {
		// Create the RefTable process next to worker 0 and hand every
		// worker the table's remote pointer only.
		var tableRef rmi.Ref
		tableRef, err = refTableClass.New(ctx, client, machines[0], workers.Refs())
		if err == nil {
			err = workers.Broadcast(ctx, workerSetGroupShallow.Name(), func(_ collection.Member, e *wire.Encoder) error {
				workerSetGroupShallow.PutArgs(e, tableRef)
				return nil
			})
			if derr := client.Delete(ctx, tableRef); err == nil {
				err = derr
			}
		}
	} else {
		// "It informs each process in the group that it is a part of a
		// group of N concurrent processes" — deep copy of the remote
		// pointer array.
		refs := workers.Refs()
		err = workers.Broadcast(ctx, workerSetGroup.Name(), func(_ collection.Member, e *wire.Encoder) error {
			workerSetGroup.PutArgs(e, groupArgs{g.p, refs})
			return nil
		})
	}
	if err != nil {
		f.Close(ctx)
		return nil, err
	}
	return f, nil
}

// Load scatters a full n1×n2×n3 row-major array to the workers' slabs, in
// pieces of whole planes (cutPlanes), a split loop over every worker's.
func (f *PFFT) Load(ctx context.Context, x []complex128) error {
	return f.slabPieces(ctx, x, workerLoadSlab, func(e *wire.Encoder, lo, _ int, part []complex128) {
		e.PutInt(lo)
		e.PutComplex128s(part)
	}, nil)
}

// Gather collects the workers' slabs into x, in the same pieces.
func (f *PFFT) Gather(ctx context.Context, x []complex128) error {
	return f.slabPieces(ctx, x, workerReadSlab, func(e *wire.Encoder, lo, hi int, _ []complex128) {
		e.PutInt(lo)
		e.PutInt(hi)
	}, func(d *wire.Decoder, part []complex128) {
		// One-pass decode straight into the caller's array; the response
		// frame recycles when the piece is settled.
		d.Complex128sInto(part)
	})
}

// slabPieces is the split loop under Load and Gather: one call of method
// per piece of every worker's slab, the workers taking turns so that all
// are busy, the default window of them outstanding — a worker faults its
// fresh slab in as it stores, and the master runs ahead of that rather than
// wait for each answer. args encodes the request for planes [lo, hi) of a
// worker's slab, which are part of x; reply (nil: the method returns
// nothing) decodes its answer.
func (f *PFFT) slabPieces(ctx context.Context, x []complex128, method rmi.Method, args func(e *wire.Encoder, lo, hi int, part []complex128), reply func(d *wire.Decoder, part []complex128)) error {
	if len(x) != f.n1*f.n2*f.n3 {
		return fmt.Errorf("pfft: array has %d elements, want %d", len(x), f.n1*f.n2*f.n3)
	}
	refs := f.workers.Refs()
	plane := f.n2 * f.n3
	parts := cutPlanes(f.h1, plane)
	piece := func(i int) (m, lo, hi int, part []complex128) {
		m = i % f.p
		lo, hi = parts.piece(i / f.p)
		return m, lo, hi, x[(m*f.h1+lo)*plane : (m*f.h1+hi)*plane]
	}
	return rmi.SplitLoop(ctx, parts.pieces()*f.p, rmi.DefaultWindow, func(i int) *rmi.Future {
		m, lo, hi, part := piece(i)
		return method.CallAsync(ctx, f.client, refs[m], func(e *wire.Encoder) error {
			args(e, lo, hi, part)
			return nil
		})
	}, func(i int, fut *rmi.Future) error {
		d, err := fut.Wait(ctx)
		if err == nil && reply != nil {
			_, _, _, part := piece(i)
			reply(d, part)
			err = d.Err()
		}
		fut.Release()
		return err
	})
}

// Transform runs the joint parallel FFT: every worker executes its
// transform method concurrently, exchanging transpose blocks peer to
// peer. sign=-1 forward, sign=+1 normalized inverse.
func (f *PFFT) Transform(ctx context.Context, sign int) error {
	return f.workers.Broadcast(ctx, workerTransform.Name(), func(_ collection.Member, e *wire.Encoder) error {
		workerTransform.PutArgs(e, sign)
		return nil
	})
}

// Barrier synchronizes with every worker process ("fft->barrier()", §4).
func (f *PFFT) Barrier(ctx context.Context) error { return f.workers.Barrier(ctx) }

// Close deletes all worker processes.
func (f *PFFT) Close(ctx context.Context) error { return f.workers.Destroy(ctx) }
