// Package rmem implements the paper's remote plain memory:
//
//	double * data = new(machine 2) double[1024];
//	data[7] = 3.1415;
//	double x = data[2];
//
// A block of memory allocated on a remote machine is itself a process
// (§2): element reads and writes are remote method executions, each a
// full client-server round trip — correct, sequential, and slow. Bulk
// range operations amortize the round trip; experiment E2 measures the
// gap, which is the paper's motivation for "moving the computation to the
// data".
package rmem

import (
	"context"
	"fmt"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// float64Block is the server-side object: the process that owns the
// memory. Methods run serially through its mailbox, so no further locking
// is needed — the object *is* its process (§2).
type float64Block struct {
	data []float64
}

// Float64BlockClass is the typed handle for float64 blocks, constructed
// from their length; stubs construct through it.
var Float64BlockClass = rmi.RegisterClass("rmem.Float64Block", wire.Int, func(env *rmi.Env, n int) (*float64Block, error) {
	if n < 0 || int64(n) > 1<<31 {
		return nil, fmt.Errorf("rmem: invalid block size %d", n)
	}
	return &float64Block{data: make([]float64, n)}, nil
})

// setArgs is the argument of set: data[i] = v.
type setArgs struct {
	i int
	v float64
}

var setCodec = wire.CodecOf(
	func(e *wire.Encoder, a setArgs) { e.PutInt(a.i); e.PutFloat64(a.v) },
	func(d *wire.Decoder) setArgs { return setArgs{d.Int(), d.Float64()} })

var (
	blockGet = rmi.DeclareOp(Float64BlockClass, "get", wire.Int, wire.Float64, func(b *float64Block, env *rmi.Env, i int) (float64, error) {
		if err := b.check(i); err != nil {
			return 0, err
		}
		return b.data[i], nil
	})
	blockSet = rmi.DeclareOp(Float64BlockClass, "set", setCodec, wire.Void, func(b *float64Block, env *rmi.Env, a setArgs) (struct{}, error) {
		err := b.check(a.i)
		if err == nil {
			b.data[a.i] = a.v
		}
		return struct{}{}, err
	})
	blockGetRange = Float64BlockClass.Declare("getRange", func(b *float64Block, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		off := args.Int()
		n := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		if off < 0 || n < 0 || n > len(b.data)-off {
			return fmt.Errorf("rmem: range [%d,+%d) out of [0,%d)", off, n, len(b.data))
		}
		reply.PutFloat64s(b.data[off : off+n])
		return nil
	})
	blockSum = rmi.DeclareOp(Float64BlockClass, "sum", wire.Void, wire.Float64, func(b *float64Block, env *rmi.Env, _ struct{}) (float64, error) {
		var s float64
		for _, v := range b.data {
			s += v
		}
		return s, nil
	})
)

// check refuses an index outside the block.
func (b *float64Block) check(i int) error {
	if i < 0 || i >= len(b.data) {
		return fmt.Errorf("rmem: index %d out of range [0,%d)", i, len(b.data))
	}
	return nil
}

// Float64Array is the client stub — the "remote pointer" the paper's user
// program holds. Each method is one remote instruction with §2 semantics.
type Float64Array struct {
	client *rmi.Client
	ref    rmi.Ref
}

// NewFloat64Array allocates n float64s on machine m — the paper's
// "new(machine m) double[n]".
func NewFloat64Array(ctx context.Context, client *rmi.Client, m int, n int) (*Float64Array, error) {
	ref, err := Float64BlockClass.New(ctx, client, m, n)
	if err != nil {
		return nil, err
	}
	return &Float64Array{client: client, ref: ref}, nil
}

// Get reads element i — "double x = data[i]": one round trip.
func (a *Float64Array) Get(ctx context.Context, i int) (float64, error) {
	return blockGet.Call(ctx, a.client, a.ref, i)
}

// Set writes element i — "data[i] = v": one round trip.
func (a *Float64Array) Set(ctx context.Context, i int, v float64) error {
	_, err := blockSet.Call(ctx, a.client, a.ref, setArgs{i, v})
	return err
}

// GetRangeInto reads len(dst) elements starting at off into dst in one
// round trip — the bulk fast lane: the only copy is wire to dst, and the
// steady state allocates nothing.
func (a *Float64Array) GetRangeInto(ctx context.Context, off int, dst []float64) error {
	d, err := blockGetRange.Call(ctx, a.client, a.ref, func(e *wire.Encoder) error {
		e.PutInt(off)
		e.PutInt(len(dst))
		return nil
	})
	if err != nil {
		return err
	}
	defer d.Release()
	d.Float64sInto(dst)
	return d.Err()
}

// Sum reduces the block remotely and ships back only the scalar.
func (a *Float64Array) Sum(ctx context.Context) (float64, error) {
	return blockSum.Call(ctx, a.client, a.ref, struct{}{})
}

// Free destroys the remote block — the paper's delete, terminating the
// memory's process.
func (a *Float64Array) Free(ctx context.Context) error {
	return a.client.Delete(ctx, a.ref)
}
