package core

// The owner-computes kernel surface of the Array. Apply, Reduce,
// ApplyBinary and ReduceBinary are the public escape hatch for
// user-registered kernels; each is a ONE-stage chain handed to the
// engine loop in pipeline.go, which is where replication, migration
// and failure semantics live. Fill/Scale/Sum/MinMax/Norm2/Dot/Axpy are
// thin wrappers over these four.

import (
	"context"

	"oopp/internal/kernel"
	"oopp/internal/trace"
)

// runStage resolves s with params as a one-stage chain, runs it over dom
// and unwraps its reduce result, if the stage has one. operand is the
// second array of a two-operand stage, nil otherwise.
func (a *Array) runStage(ctx context.Context, dom Domain, s kernel.Stage, operand *Array, params []float64) (acc []float64, n int64, err error) {
	st, err := kernel.Resolve(s, params)
	if err != nil {
		return nil, 0, err
	}
	var operands []*Array
	if operand != nil {
		operands = []*Array{operand}
	}
	res, err := a.runChain(ctx, dom, kernel.Chain{st}, operands)
	if err != nil || len(res) == 0 {
		return nil, 0, err
	}
	return res[0].Acc, res[0].N, nil
}

// Apply runs the registered map kernel name in place over dom, on the
// devices that own the pages — one remote call per involved device, no
// element data on the wire. Partially covered pages are transformed
// through the same device-side sub-box path, so the read-modify-write
// is atomic within each device's serial mailbox. It degrades like any
// mutate-only chain (see runChain): a machine-down replica is tolerated
// while every page keeps a live one, and fenced batches park and replay.
func (a *Array) Apply(ctx context.Context, dom Domain, name string, params ...float64) error {
	// On a sampled trace the whole kernel application is one span whose
	// children are the per-device applyPipelineK batches.
	ctx, sp := trace.StartSpan(ctx, "kernel.apply")
	_, _, err := a.runStage(ctx, dom, kernel.MapStage(name), nil, params)
	sp.End(err != nil)
	return err
}

// Reduce folds the registered reduction kernel name over dom: each
// involved device folds its pages locally and ships only a fixed-width
// (count, accumulator) partial, merged from one per page region in region
// order; the partials merge client-side in device order (deterministic
// for any associative kernel). It returns the combined accumulator and
// the number of elements folded; an empty dom folds nothing and returns
// the kernel's identity with n == 0 —
// identity-only partials are never merged, so ±Inf-style identities
// cannot poison the result. Under a replicated map each page is folded
// on one *live* replica, and a machine-down failure retries on the
// survivors (see runChain).
func (a *Array) Reduce(ctx context.Context, dom Domain, name string, params ...float64) (acc []float64, n int64, err error) {
	ctx, sp := trace.StartSpan(ctx, "kernel.reduce")
	acc, n, err = a.runStage(ctx, dom, kernel.ReduceStage(name), nil, params)
	sp.End(err != nil)
	return acc, n, err
}

// ApplyBinary runs the registered two-operand kernel name over dom:
// each of a's devices transforms its regions in place, pulling the
// co-indexed region of b directly from b's device process — device to
// device, never through the client (the §5 pattern at kernel
// generality). When a page of b is co-located with its partner (the
// identical-layout case, e.g. Axpy between arrays sharing a map over
// the same machines), the pull is a shared-address-space read and no
// operand data touches the network at all.
func (a *Array) ApplyBinary(ctx context.Context, dom Domain, name string, b *Array, params ...float64) error {
	_, _, err := a.runStage(ctx, dom, kernel.BinaryStage(name), b, params)
	return err
}

// ReduceBinary folds the registered two-operand reduction kernel name
// over the co-indexed regions of a and b — the dot-product shape: the
// operand pages meet at a's devices, only scalars return.
func (a *Array) ReduceBinary(ctx context.Context, dom Domain, name string, b *Array, params ...float64) (acc []float64, n int64, err error) {
	return a.runStage(ctx, dom, kernel.BinaryReduceStage(name), b, params)
}
