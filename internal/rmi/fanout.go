package rmi

import (
	"context"
	"errors"
	"fmt"
	"time"

	"oopp/internal/wire"
)

// This file is the collective fan-out engine: one windowed, concurrent
// issue/settle loop (SplitLoop) shared by every aggregate surface in the
// repo — the typed Collection[T] in internal/collection is a thin skin
// over FanOut, core.Array's kernel collectives call FanOut over their
// devices' refs, and its element transfers call SplitLoop directly.
//
// Two properties define a collective here:
//
//   - Concurrency with a bounded window. Member calls are issued through
//     the async lanes with at most `window` requests in flight, so a
//     broadcast over N members completes in ~max(member latency), not
//     the sum, without unbounded client buffering.
//   - Total error reporting. A collective attempts every member and
//     returns errors.Join of all member failures, each wrapped in a
//     MemberError carrying the member index — never a silent
//     first-error abort that leaves the caller guessing which members
//     ran.

// DefaultWindow is the default bound on outstanding requests in a
// collective fan-out. core.DefaultWindow aliases it.
const DefaultWindow = 32

// MemberError wraps a failure of one member of a collective operation,
// carrying the member index and machine so callers can tell which
// members of an errors.Join'd aggregate failed.
type MemberError struct {
	Index   int    // member index within the collective
	Machine int    // machine hosting the member
	Op      string // method or operation name
	Err     error
}

// Error implements the error interface.
func (e *MemberError) Error() string {
	return fmt.Sprintf("rmi: %s on member %d (machine %d): %v", e.Op, e.Index, e.Machine, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *MemberError) Unwrap() error { return e.Err }

func memberErr(index, machine int, op string, err error) error {
	return &MemberError{Index: index, Machine: machine, Op: op, Err: err}
}

// normWindow clamps a window to [1, ...], defaulting to DefaultWindow.
func normWindow(w int) int {
	if w < 1 {
		return DefaultWindow
	}
	return w
}

// SplitLoop is the paper's §4 transformation as a function: a loop of n
// remote calls split into a send loop and a receive loop. issue(i)
// starts call i, in index order, while fewer than window futures are
// outstanding; settle(i, f) consumes call i's future — wait, decode,
// release — also in index order (nil: wait, release, return the call's
// error). The first settle error stops issuing, drains every future
// still outstanding (no pending call leaks) and is returned; a settle
// that records failures and returns nil attempts all n calls. An issue
// that has stopped starting calls returns nil, and settle is handed that.
//
// The futures one pass of the issue loop starts are a burst, and the burst
// ends where the pass does: requests a collective held on their
// connections (inBurst) are flushed there, one write a machine, before the
// settle that follows. Issue steps that send at once — every one outside
// this file — have nothing to flush.
//
// window = 1 is the sequential §2 form; window < 1 means DefaultWindow.
// How a client bounds and settles outstanding requests is decided here
// and nowhere else: FanOut, SpawnRefs and every core.Array transfer run
// on it.
func SplitLoop(ctx context.Context, n, window int, issue func(i int) *Future, settle func(i int, f *Future) error) error {
	window = min(normWindow(window), n)
	if settle == nil {
		settle = func(_ int, f *Future) error { return f.Err(ctx) }
	}
	futs := make([]*Future, window) // ring: call i lives in slot i%window
	issued := 0
	for done := 0; done < n; done++ {
		burst := issued
		for issued < n && issued < done+window {
			futs[issued%window] = issue(issued)
			issued++
		}
		// The burst ends here, before the wait: what a collective's issue
		// steps held on their connections leaves now, one write a machine.
		for ; burst < issued; burst++ {
			if f := futs[burst%window]; f != nil {
				f.flush()
			}
		}
		if err := settle(done, futs[done%window]); err != nil {
			for i := done + 1; i < issued; i++ {
				if f := futs[i%window]; f != nil {
					_ = f.Err(ctx)
				}
			}
			return err
		}
	}
	return nil
}

// FanOut invokes method on every ref concurrently with at most window
// requests in flight, collecting responses in member order. args (may be
// nil) encodes member i's arguments; collect (may be nil) decodes member
// i's reply — the decoder and any views of it are valid only until
// collect returns, after which the response frame is recycled.
//
// Every member is attempted even after failures; the result is
// errors.Join of one MemberError per failed member (nil if all
// succeeded).
func FanOut(ctx context.Context, client *Client, refs []Ref, method string, args func(i int, e *wire.Encoder) error, collect func(i int, d *wire.Decoder) error, window int, opts ...CallOption) error {
	o := client.inBurst(ctx, resolveOptions(opts), false)
	return joinLoop(ctx, refs, method, window, func(i int) *Future {
		var enc ArgEncoder
		if args != nil {
			enc = func(e *wire.Encoder) error { return args(i, e) }
		}
		return client.callAsync(ctx, refs[i], method, enc, o)
	}, collect)
}

// joinLoop is SplitLoop for collectives: a member's failure (of its
// call, or of collect on its reply) never stops the loop, and all of them
// come back joined, each a MemberError naming op. The issue steps handed
// to it, like SpawnRefs', start their requests inBurst, so at the default
// window a collective's requests are one write per machine.
func joinLoop(ctx context.Context, refs []Ref, op string, window int, issue func(i int) *Future, collect func(i int, d *wire.Decoder) error) error {
	var errs []error
	_ = SplitLoop(ctx, len(refs), window, issue, func(i int, f *Future) error {
		d, err := f.Wait(ctx)
		if err == nil && collect != nil {
			err = collect(i, d)
		}
		f.Release()
		if err != nil {
			errs = append(errs, memberErr(i, refs[i].Machine, op, err))
		}
		return nil
	})
	return errors.Join(errs...)
}

// spawnDrainGrace bounds how long an aborted spawn waits for in-flight
// constructions to resolve so their objects can be deleted; a
// construction hung past it is abandoned (its object leaks only if the
// constructor eventually succeeds after the grace).
const spawnDrainGrace = 10 * time.Second

// SpawnRefs constructs one object of class per entry of machines,
// concurrently with at most window constructions in flight, and returns
// the member refs in order. args (may be nil) encodes member i's
// constructor arguments.
//
// On any failure no member object leaks: issuing stops, every
// already-issued construction future is drained — including futures that
// had not yet resolved when the failure surfaced — and every
// successfully constructed member is deleted. Cleanup runs even when
// ctx caused the failure: constructions are issued on a
// cancellation-detached context (caller cancellation stops new work and
// fails the spawn, but cannot orphan an in-flight construction, whose
// ref the teardown needs), and the post-abort drain is bounded by
// spawnDrainGrace. The returned error is errors.Join of one MemberError
// per failed member.
func SpawnRefs(ctx context.Context, client *Client, machines []int, class string, args func(i int, e *wire.Encoder) error, window int, opts ...CallOption) ([]Ref, error) {
	refs := make([]Ref, len(machines))
	var errs []error
	issueCtx := context.WithoutCancel(ctx)
	o := client.inBurst(ctx, resolveOptions(opts), true)
	var graceEnd time.Time // of the drain, set when the caller first gives up
	_ = SplitLoop(issueCtx, len(machines), window, func(i int) *Future {
		if len(errs) > 0 || ctx.Err() != nil {
			return nil // no new work, only the drain
		}
		var enc ArgEncoder
		if args != nil {
			enc = func(e *wire.Encoder) error { return args(i, e) }
		}
		return client.newAsync(issueCtx, machines[i], class, enc, o)
	}, func(i int, fut *Future) error {
		if fut == nil {
			return nil
		}
		// Stay responsive to the caller without aborting the future itself
		// (a Wait(ctx) abort would unregister the request and lose the
		// constructed object's ref).
		select {
		case <-fut.Done():
		case <-ctx.Done():
			// Wait out the (shared) grace for the in-flight construction
			// so its object can still be deleted.
			if graceEnd.IsZero() {
				graceEnd = time.Now().Add(spawnDrainGrace)
			}
			grace := time.NewTimer(time.Until(graceEnd))
			defer grace.Stop()
			select {
			case <-fut.Done():
			case <-grace.C:
				return nil // hung past the grace: abandoned
			}
		}
		r, err := fut.Ref(issueCtx)
		if err == nil {
			refs[i] = r
		} else if ctx.Err() == nil {
			errs = append(errs, memberErr(i, machines[i], "spawn "+class, err))
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		errs = append(errs, fmt.Errorf("rmi: spawning %s aborted: %w", class, err))
	}
	if len(errs) > 0 {
		// Best-effort teardown of the members that did construct. The
		// cleanup context survives cancellation of ctx: an aborted spawn
		// must still not leak server-side objects.
		for _, r := range refs {
			if !r.IsNil() {
				_ = client.Delete(issueCtx, r)
			}
		}
		return nil, errors.Join(errs...)
	}
	return refs, nil
}

// BarrierRefs synchronizes with every member: it completes when each
// member has processed all messages sent to it before the barrier (a
// no-op message through each member's FIFO mailbox, fanned out with the
// collective window).
func BarrierRefs(ctx context.Context, client *Client, refs []Ref, window int) error {
	return FanOut(ctx, client, refs, methodPing, nil, nil, window)
}

// DeleteRefs destroys every member concurrently (bounded by window) and
// returns errors.Join of the per-member failures.
func DeleteRefs(ctx context.Context, client *Client, refs []Ref, window int) error {
	o := client.inBurst(ctx, callOptions{}, false)
	return joinLoop(ctx, refs, "delete", window, func(i int) *Future { return client.deleteAsync(ctx, refs[i], o) }, nil)
}
