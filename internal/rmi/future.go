package rmi

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"oopp/internal/wire"
)

// Future is the pending result of an asynchronous remote operation. It is
// the runtime mechanism behind the paper's §4 transformation: a loop of
// synchronous calls becomes a loop issuing futures (the send loop)
// followed by a loop of Waits (the receive loop).
//
// A future is context-aware on both ends: the context passed when the
// operation was issued and the context passed to Wait both abort the call
// promptly. Aborting unregisters the pending request, so a late response
// is dropped (and counted as orphaned) instead of resurrecting the call.
type Future struct {
	callSite
	done chan struct{}

	// cancellation plumbing. callSite's cc and reqID are bound only after
	// dialing succeeds, which can race with an already-armed per-call
	// timer, so they are guarded by regMu, as is timer; the rest is
	// written before sharing.
	regMu   sync.Mutex
	sendCtx context.Context
	timer   *time.Timer

	// complete runs once: it ends callSite's span there.
	once   sync.Once
	result *wire.Decoder
	err    error

	// released latches the one Release of the response frame. It cannot be
	// inferred from the decoder itself: once released, the pooled decoder
	// struct may already belong to another in-flight call.
	released atomic.Bool
}

// Wait blocks until the operation completes, the context is canceled, or
// the operation's issue-time context is canceled, and returns a decoder
// positioned at the method's results (empty for void methods). On
// cancellation the in-flight call is aborted: the pending request is
// unregistered and the future fails with an error wrapping ctx.Err().
func (f *Future) Wait(ctx context.Context) (*wire.Decoder, error) {
	var waitDone, sendDone <-chan struct{}
	if ctx != nil {
		waitDone = ctx.Done()
	}
	if f.sendCtx != nil {
		sendDone = f.sendCtx.Done()
	}
	select {
	case <-f.done:
	case <-waitDone:
		f.cancel(ctx.Err())
	case <-sendDone:
		f.cancel(f.sendCtx.Err())
	}
	<-f.done
	return f.result, f.err
}

// bind implements pendingCall: it records where the request is
// registered, so cancel can unregister it, and reports whether the future
// is still pending.
func (f *Future) bind(cc *clientConn, reqID uint64) bool {
	f.regMu.Lock()
	f.cc, f.reqID = cc, reqID
	f.regMu.Unlock()
	select {
	case <-f.done:
		return false
	default:
		return true
	}
}

// cancel aborts a pending operation: the request is unregistered from its
// connection (a late response becomes an orphan) and the future fails. If
// the response already arrived, cancel is a no-op.
func (f *Future) cancel(cause error) {
	f.regMu.Lock()
	f.abandon()
	f.regMu.Unlock()
	f.complete(nil, f.aborted(cause))
}

// Done returns a channel closed when the result is available, for use in
// select statements.
func (f *Future) Done() <-chan struct{} { return f.done }

// Err waits for completion and returns only the error (void methods).
// The response frame is recycled: do not decode results through Wait
// after calling Err.
func (f *Future) Err(ctx context.Context) error {
	_, err := f.Wait(ctx)
	f.Release()
	return err
}

// Ref waits for a construction future and decodes the new object's remote
// pointer. The response frame is recycled.
func (f *Future) Ref(ctx context.Context) (Ref, error) {
	d, err := f.Wait(ctx)
	if err != nil {
		return Ref{}, err
	}
	defer f.Release()
	id := d.Uvarint()
	if err := d.Err(); err != nil {
		return Ref{}, err
	}
	return Ref{Machine: f.machine, Object: id, Class: f.class}, nil
}

// arm installs the per-call timeout (WithTimeout/WithDeadline). The timer
// field is guarded by regMu: an immediately-expiring timer (WithDeadline
// in the past clamps to 1ns) can fire — and complete the future — before
// arm's store would otherwise be visible.
func (f *Future) arm(timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	t := time.AfterFunc(timeout, func() {
		f.cancel(context.DeadlineExceeded)
	})
	f.regMu.Lock()
	f.timer = t
	f.regMu.Unlock()
}

func (f *Future) complete(d *wire.Decoder, err error) {
	f.once.Do(func() {
		f.regMu.Lock()
		t := f.timer
		f.regMu.Unlock()
		if t != nil {
			// If completion raced ahead of arm's store, the timer is not
			// stopped here; its late cancel is a no-op behind f.once.
			t.Stop()
		}
		f.result = d
		f.err = err
		f.span.End(err != nil)
		close(f.done)
	})
}

// Release recycles the response frame held by a completed future. Call it
// once the result decoder (from Wait) is fully decoded and no views of it
// are retained; afterwards that decoder reads as released. Release on a
// pending, failed, or already-released future is a no-op (a latch inside
// the future guarantees this even after the pooled decoder is reassigned
// to another call). Do not mix it with releasing the decoder directly —
// use one or the other. Futures that are never released simply leave
// their frame to the garbage collector.
func (f *Future) Release() {
	select {
	case <-f.done:
		if f.released.CompareAndSwap(false, true) {
			f.result.Release()
		}
	default:
	}
}

// WaitAll waits for every future (nil entries are skipped) and returns the
// first error encountered — but always waits for all, so no goroutine is
// left racing. Cancellation of ctx aborts every remaining future.
func WaitAll(ctx context.Context, futs []*Future) error {
	var first error
	for _, f := range futs {
		if f == nil {
			continue
		}
		if _, err := f.Wait(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TypedFuture is the pending result of an Op's CallAsync. It is its
// Future, for SplitLoop, WaitAll and Err, and its Wait decodes the result
// through the Op's result codec.
type TypedFuture[R any] struct {
	*Future
	res wire.Codec[R]
}

// Wait blocks (honoring ctx like Future.Wait) and decodes the result. The
// response frame is recycled once the result is decoded.
func (t TypedFuture[R]) Wait(ctx context.Context) (R, error) {
	d, err := t.Future.Wait(ctx)
	if err != nil {
		var zero R
		return zero, err
	}
	r, err := t.res.Get(d)
	t.Release()
	return r, err
}
