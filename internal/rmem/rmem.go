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

// ClassFloat64 is the registered class name for float64 blocks.
const ClassFloat64 = "rmem.Float64Block"

// float64Block is the server-side object: the process that owns the
// memory. Methods run serially through its mailbox, so no further locking
// is needed — the object *is* its process (§2).
type float64Block struct {
	data []float64
}

// Float64BlockClass is the typed handle for float64 blocks; stubs
// construct through it instead of naming the class.
var Float64BlockClass = rmi.RegisterClass(ClassFloat64, func(env *rmi.Env, args *wire.Decoder) (*float64Block, error) {
	n := args.Int()
	if err := args.Err(); err != nil {
		return nil, err
	}
	if n < 0 || int64(n) > 1<<31 {
		return nil, fmt.Errorf("rmem: invalid block size %d", n)
	}
	return &float64Block{data: make([]float64, n)}, nil
})

var (
	blockGet = Float64BlockClass.Declare("get", func(b *float64Block, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		i := args.Int()
		if i < 0 || i >= len(b.data) {
			return fmt.Errorf("rmem: index %d out of range [0,%d)", i, len(b.data))
		}
		reply.PutFloat64(b.data[i])
		return nil
	})
	blockSet = Float64BlockClass.Declare("set", func(b *float64Block, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		i := args.Int()
		v := args.Float64()
		if err := args.Err(); err != nil {
			return err
		}
		if i < 0 || i >= len(b.data) {
			return fmt.Errorf("rmem: index %d out of range [0,%d)", i, len(b.data))
		}
		b.data[i] = v
		return nil
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
	blockSum = Float64BlockClass.Declare("sum", func(b *float64Block, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		var s float64
		for _, v := range b.data {
			s += v
		}
		reply.PutFloat64(s)
		return nil
	})
)

// Float64Array is the client stub — the "remote pointer" the paper's user
// program holds. Each method is one remote instruction with §2 semantics.
type Float64Array struct {
	client *rmi.Client
	ref    rmi.Ref
}

// NewFloat64Array allocates n float64s on machine m — the paper's
// "new(machine m) double[n]".
func NewFloat64Array(ctx context.Context, client *rmi.Client, m int, n int) (*Float64Array, error) {
	ref, err := Float64BlockClass.New(ctx, client, m, func(e *wire.Encoder) error {
		e.PutInt(n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Float64Array{client: client, ref: ref}, nil
}

// Get reads element i — "double x = data[i]": one round trip.
func (a *Float64Array) Get(ctx context.Context, i int) (float64, error) {
	d, err := blockGet.Call(ctx, a.client, a.ref, func(e *wire.Encoder) error {
		e.PutInt(i)
		return nil
	})
	if err != nil {
		return 0, err
	}
	defer d.Release()
	v := d.Float64()
	return v, d.Err()
}

// Set writes element i — "data[i] = v": one round trip.
func (a *Float64Array) Set(ctx context.Context, i int, v float64) error {
	d, err := blockSet.Call(ctx, a.client, a.ref, func(e *wire.Encoder) error {
		e.PutInt(i)
		e.PutFloat64(v)
		return nil
	})
	d.Release()
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
	d, err := blockSum.Call(ctx, a.client, a.ref, nil)
	if err != nil {
		return 0, err
	}
	defer d.Release()
	v := d.Float64()
	return v, d.Err()
}

// Free destroys the remote block — the paper's delete, terminating the
// memory's process.
func (a *Float64Array) Free(ctx context.Context) error {
	return a.client.Delete(ctx, a.ref)
}
