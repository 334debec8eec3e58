package rmi

import (
	"errors"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// frameLimit is the most bytes one frame may hold on any transport.
const frameLimit = 64 << 20

func init() {
	Register("test.Big", func(env *Env, args *wire.Decoder) (any, error) {
		return &echo{}, nil
	}).
		// reply answers with n bytes, n its first argument; the rest of the
		// arguments, padding, is not read.
		Method("reply", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutBytes(make([]byte, args.Int()))
			return args.Err()
		})
}

// replyArgs asks test.Big's reply for n bytes, in a request padded by pad
// bytes.
func replyArgs(n, pad int) ArgEncoder {
	return func(e *wire.Encoder) error {
		e.PutInt(n)
		if pad > 0 {
			e.PutBytes(make([]byte, pad))
		}
		return nil
	}
}

// TestOversizedFrameFailsItsRequestAlone: a frame longer than a frame may
// be fails the one request it belongs to, with transport.ErrFrameTooLarge,
// on both sides of the wire — and nothing else. A reply too long is
// answered with the error instead, by itself and when it was gathered with
// siblings, which are answered as usual; a request too long is refused
// before it leaves, and the connection it would have left on stays up.
// None of them is, or makes the machine, down.
func TestOversizedFrameFailsItsRequestAlone(t *testing.T) {
	if raceEnabled {
		// Each case builds a 64 MiB frame, and the detector's shadow memory
		// multiplies what that costs.
		t.Skip("64 MiB frames under the race detector")
	}
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		nodes, stop := startCluster(t, tr, 2)
		defer stop()
		c := nodes[0].client
		refs, err := SpawnRefs(bg, c, []int{1, 1, 1}, "test.Big", nil, DefaultWindow)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		// answered runs f with a watchdog: a request that is never answered
		// fails the test rather than hanging it.
		answered := func(what string, f func() error) error {
			t.Helper()
			done := make(chan error, 1)
			go func() { done <- f() }()
			select {
			case err := <-done:
				return err
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: no answer after 10 s", what)
				return nil
			}
		}
		tooLarge := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, transport.ErrFrameTooLarge) || errors.Is(err, ErrMachineDown) {
				t.Errorf("%s: %v, want transport.ErrFrameTooLarge and no machine down", what, err)
			}
		}
		call := func(ref Ref, args ArgEncoder) func() error {
			return func() error {
				d, err := c.Call(bg, ref, "reply", args)
				d.Release()
				return err
			}
		}

		tooLarge("a lone reply too long", answered("a lone call", call(refs[2], replyArgs(frameLimit, 0))))

		sizes := []int{4, 4, frameLimit}
		err = answered("a fan-out", func() error {
			return FanOut(bg, c, refs, "reply", func(i int, e *wire.Encoder) error { return replyArgs(sizes[i], 0)(e) }, nil, DefaultWindow)
		})
		var me *MemberError
		if errs := joined(err); len(errs) != 1 || !errors.As(errs[0], &me) || me.Index != 2 {
			t.Errorf("fan-out: %v, want member 2 alone to have failed", err)
		} else {
			tooLarge("a grouped reply too long", me)
		}

		c.mu.Lock()
		cc := c.conns[1]
		c.mu.Unlock()
		tooLarge("a request too long", answered("a request too long", call(refs[0], replyArgs(4, frameLimit))))
		if err := answered("the next call", call(refs[0], replyArgs(4, 0))); err != nil {
			t.Errorf("the call after a request too long: %v", err)
		}
		c.mu.Lock()
		same := c.conns[1] == cc
		c.mu.Unlock()
		if !same || c.MachineDown(1) != nil {
			t.Errorf("a request too long cost its connection (same: %v, down: %v)", same, c.MachineDown(1))
		}
		if err := DeleteRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("delete: %v", err)
		}
	})
}
