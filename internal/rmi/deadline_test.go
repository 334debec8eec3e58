package rmi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"oopp/internal/wire"
)

// tallyObj counts bumps behind a gate, so a test can park its mailbox
// and prove whether a queued mutation executed.
type tallyObj struct {
	gate chan struct{}
	once sync.Once
	n    int
}

var registerTallyOnce sync.Once

func registerTally() {
	registerTallyOnce.Do(func() {
		Register("test.Tally", func(env *Env, args *wire.Decoder) (any, error) {
			return &tallyObj{gate: make(chan struct{})}, nil
		}).
			Method("hold", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				<-obj.(*tallyObj).gate
				return nil
			}).
			Method("bump", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				obj.(*tallyObj).n++
				return nil
			}).
			Method("count", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				reply.PutInt(obj.(*tallyObj).n)
				return nil
			}).
			ConcurrentMethod("release", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				obj.(*tallyObj).release()
				return nil
			})
	})
}

func (g *tallyObj) release() { g.once.Do(func() { close(g.gate) }) }

// TestDeadlineShedBeforeExecution pins the deadline-propagation contract:
// a request admitted and queued behind a parked mailbox whose client
// deadline passes before it reaches the front is dropped by the server
// without executing — typed context.DeadlineExceeded, counted in the
// method's Expired, and the method body never runs.
func TestDeadlineShedBeforeExecution(t *testing.T) {
	registerTally()
	srv, c, _ := newGateServer(t, Unbounded())
	ref, err := c.New(bg, 0, "test.Tally", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	expired := func() int64 {
		for _, st := range *srv.stats.Load() {
			if st != nil && st.Name == "test.Tally.bump" {
				return st.Expired.Load()
			}
		}
		return 0
	}

	// Park the mailbox, then queue a mutation with a deadline far shorter
	// than the park.
	hold := c.CallAsync(bg, ref, "hold", nil)
	waitUntil(t, func() bool { return c.InFlightTo(0) >= 1 })
	bump := c.CallAsync(bg, ref, "bump", nil, WithTimeout(40*time.Millisecond))

	// Let the deadline expire while the bump is still parked.
	time.Sleep(120 * time.Millisecond)
	if err := c.CallAsync(bg, ref, "release", nil, WithPriority(PrioHigh)).Err(bg); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := hold.Err(bg); err != nil {
		t.Fatalf("hold: %v", err)
	}
	if err := bump.Err(bg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired bump: got %v, want context.DeadlineExceeded", err)
	}

	// The server noticed the expiry itself (the client timer firing is
	// not enough — the shed must happen server-side, before execution).
	waitUntil(t, func() bool {
		return expired() >= 1
	})

	// The method body never ran: a fresh in-deadline call sees count 0,
	// and executes normally itself.
	d, err := c.Call(bg, ref, "count", nil, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	n := d.Int()
	d.Release()
	if n != 0 {
		t.Fatalf("expired bump executed anyway: count = %d, want 0", n)
	}
	if _, err := c.Call(bg, ref, "bump", nil, WithTimeout(5*time.Second)); err != nil {
		t.Fatalf("in-deadline bump: %v", err)
	}
	if n := expired(); n != 1 {
		t.Fatalf("Expired = %d, want exactly 1", n)
	}
}

// TestDeadlineExceededCrossesWire pins the typed-error grammar: a remote
// error carrying the shed text matches context.DeadlineExceeded under
// errors.Is, exactly like ErrOverloaded/ErrDraining do.
func TestDeadlineExceededCrossesWire(t *testing.T) {
	re := &RemoteError{Machine: 2, Class: "x", Method: "y",
		Msg: "x.y: expired before execution: context deadline exceeded"}
	if !errors.Is(re, context.DeadlineExceeded) {
		t.Fatal("remote shed text does not match context.DeadlineExceeded")
	}
	if errors.Is(&RemoteError{Msg: "unrelated"}, context.DeadlineExceeded) {
		t.Fatal("unrelated remote error matches context.DeadlineExceeded")
	}
}
