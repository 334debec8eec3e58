package rmi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"oopp/internal/metrics"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// typedCounter is a class written against the typed surface: registration
// with its start value's codec returns a Class[*typedCounter, int] handle,
// and its methods are declared with their codecs, so they receive decoded
// arguments and callers get decoded results.
type typedCounter struct{ n int }

var typedCounterClass = RegisterClass("test.TypedCounter", wire.Int,
	func(env *Env, start int) (*typedCounter, error) { return &typedCounter{n: start}, nil })

var (
	typedAdd = DeclareOp(typedCounterClass, "add", wire.Int, wire.Int, func(c *typedCounter, env *Env, d int) (int, error) {
		c.n += d
		return c.n, nil
	})
	typedGet = DeclareOp(typedCounterClass, "get", wire.Void, wire.Int, func(c *typedCounter, env *Env, _ struct{}) (int, error) {
		return c.n, nil
	})
	typedLabel = DeclareOp(typedCounterClass, "label", wire.Void, wire.String, func(c *typedCounter, env *Env, _ struct{}) (string, error) {
		return fmt.Sprintf("counter(%d)", c.n), nil
	})
	typedVoid = DeclareOp(typedCounterClass, "void", wire.Void, wire.Void, func(c *typedCounter, env *Env, _ struct{}) (struct{}, error) {
		return struct{}{}, nil
	})
)

// counterArgs encodes the counter's start value.
func counterArgs(n int) ArgEncoder {
	return func(e *wire.Encoder) error { e.PutInt(n); return nil }
}

// TestTypedRoundTrip drives the typed surface end to end: handle-based
// construction, a call through an Op's codecs (Call), the §4 split form
// (CallAsync + TypedFuture.Wait) and a void Op.
func TestTypedRoundTrip(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client

	ref, err := typedCounterClass.New(bg, c, 1, 40)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if ref.Class != "test.TypedCounter" {
		t.Fatalf("ref class = %q", ref.Class)
	}

	n, err := typedAdd.Call(bg, c, ref, 2)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if n != 42 {
		t.Fatalf("add result = %d, want 42", n)
	}

	fut := typedGet.CallAsync(bg, c, ref, struct{}{})
	got, err := fut.Wait(bg)
	if err != nil || got != 42 {
		t.Fatalf("CallAsync get = %d, %v", got, err)
	}

	if _, err := typedVoid.Call(bg, c, ref, struct{}{}); err != nil {
		t.Fatalf("void: %v", err)
	}

	// A counter started at zero.
	ref2, err := typedCounterClass.New(bg, c, 0, 0)
	if err != nil {
		t.Fatalf("handle New: %v", err)
	}
	if v, err := typedGet.Call(bg, c, ref2, struct{}{}); err != nil || v != 0 {
		t.Fatalf("handle-built counter get = %d, %v", v, err)
	}
	if err := c.Delete(bg, ref); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := c.Delete(bg, ref2); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// TestConstructorArgumentDecodedFirst: the server decodes a constructor's
// whole argument before the constructor runs, so a request whose argument
// does not decode is refused and creates no object.
func TestConstructorArgumentDecodedFirst(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	before := nodes[0].server.NumObjects()
	_, err := nodes[0].client.New(bg, 0, typedCounterClass.Name(), nil)
	if err == nil || !contains(err.Error(), "argument decode: "+wire.ErrTruncated.Error()) {
		t.Fatalf("construction without its argument: %v, want an argument decode error", err)
	}
	if n := nodes[0].server.NumObjects(); n != before {
		t.Fatalf("%d objects after a refused construction, want %d", n, before)
	}
}

// TestInvokeDecodeMismatch checks that a result the caller's codec cannot
// decode surfaces as an error instead of a zero value.
func TestInvokeDecodeMismatch(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	ref, err := typedCounterClass.New(bg, c, 0, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// label returns one string; asking for a string and an int must fail
	// loudly.
	type labelled struct {
		s string
		n int
	}
	wrongLabel := Op[struct{}, labelled]{typedLabel.Method, wire.Void, wire.CodecOf(
		func(e *wire.Encoder, v labelled) { e.PutString(v.s); e.PutInt(v.n) },
		func(d *wire.Decoder) labelled { return labelled{d.String(), d.Int()} })}
	if _, err = wrongLabel.Call(bg, c, ref, struct{}{}); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("decode mismatch: %v, want wire.ErrTruncated", err)
	}
	// void returns nothing; asking for a result must fail loudly.
	wrongVoid := Op[struct{}, int]{typedVoid.Method, wire.Void, wire.Int}
	if _, err = wrongVoid.CallAsync(bg, c, ref, struct{}{}).Wait(bg); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("void call error = %v, want wire.ErrTruncated", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestContextCancelAbortsInFlightCall proves the acceptance criterion:
// canceling the context aborts an in-flight remote call promptly, and the
// late response is dropped and counted as orphaned.
func TestContextCancelAbortsInFlightCall(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		nodes, stop := startCluster(t, tr, 1)
		defer stop()
		c := nodes[0].client

		ref, err := c.New(bg, 0, "test.Slowpoke", nil)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		before := metrics.Default.Snapshot()

		ctx, cancel := context.WithCancel(context.Background())
		fut := c.CallAsync(ctx, ref, "sleep", func(e *wire.Encoder) error {
			e.PutInt(250) // the remote method sleeps 250ms
			return nil
		})
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err = fut.Wait(bg) // waiting with a fresh context: the ISSUE ctx aborts it
		if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
			t.Fatalf("cancellation took %v, want prompt abort", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}

		// The remote call still completes server-side; its response must
		// be dropped and counted, not delivered.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if metrics.Default.Snapshot().Sub(before).RespOrphaned > 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if got := metrics.Default.Snapshot().Sub(before).RespOrphaned; got == 0 {
			t.Fatal("orphaned response was not counted")
		}
		// The object is still alive and serviceable after the abort.
		if err := BarrierRefs(bg, c, []Ref{ref}, 1); err != nil {
			t.Fatalf("object unusable after canceled call: %v", err)
		}
	})
}

// TestWaitCtxCancelAbortsCall covers the other cancellation path: the
// context passed to Wait (not the issue-time one) is canceled.
func TestWaitCtxCancelAbortsCall(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	fut := c.CallAsync(bg, ref, "sleep", func(e *wire.Encoder) error {
		e.PutInt(250)
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := fut.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWithTimeoutArmsAsyncFutures checks that a per-call deadline fails
// the future even when nobody is waiting with a deadline-carrying
// context, and that the trace label appears in the error.
func TestWithTimeoutArmsAsyncFutures(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	fut := c.CallAsync(bg, ref, "sleep", func(e *wire.Encoder) error {
		e.PutInt(500)
		return nil
	}, WithTimeout(25*time.Millisecond), WithLabel("slow-op"))
	start := time.Now()
	_, err = fut.Wait(bg)
	if time.Since(start) > 300*time.Millisecond {
		t.Fatal("per-call timeout did not fire promptly")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !contains(err.Error(), "slow-op") {
		t.Fatalf("error %q does not carry the trace label", err)
	}
	// Both ways to wait name the call site in the same words.
	eachForm(t, bg, c, ref, "sleep", func(e *wire.Encoder) error {
		e.PutInt(500)
		return nil
	}, []CallOption{WithTimeout(25 * time.Millisecond), WithLabel("slow-op")}, func(form string, err error) {
		if !errors.Is(err, context.DeadlineExceeded) || !contains(err.Error(), "test.Slowpoke.sleep [slow-op] on machine 0") {
			t.Fatalf("%s: err = %v, want DeadlineExceeded naming the call site", form, err)
		}
	})
}

// TestWaitAllMixed exercises WaitAll over nil entries, failed futures,
// and successful futures together.
func TestWaitAllMixed(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	ref, err := typedCounterClass.New(bg, c, 0, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ok1 := c.CallAsync(bg, ref, "get", nil)
	failed := c.CallAsync(bg, ref, "nonexistent", nil)
	ok2 := c.CallAsync(bg, ref, "get", nil)

	err = WaitAll(bg, []*Future{nil, ok1, nil, failed, ok2})
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("WaitAll err = %v, want ErrNoSuchMethod", err)
	}
	// All-nil and empty slices are fine.
	if err := WaitAll(bg, nil); err != nil {
		t.Fatalf("WaitAll(nil) = %v", err)
	}
	if err := WaitAll(bg, []*Future{nil, nil}); err != nil {
		t.Fatalf("WaitAll(all nil) = %v", err)
	}
	// Already-completed futures are idempotent to re-wait.
	if err := WaitAll(bg, []*Future{ok1, ok2}); err != nil {
		t.Fatalf("re-wait = %v", err)
	}
}

// TestCanceledContextFailsSendFast verifies send-side context checks: a
// pre-canceled context never reaches the wire.
func TestCanceledContextFailsSendFast(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := metrics.Default.Snapshot()
	if _, err := c.New(ctx, 0, "test.TypedCounter", counterArgs(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("New on canceled ctx: %v", err)
	}
	eachForm(t, ctx, c, Ref{Machine: 0, Object: 1, Class: "test.TypedCounter"}, "get", nil, nil, func(form string, err error) {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s on canceled ctx: %v", form, err)
		}
	})
	if d := metrics.Default.Snapshot().Sub(before); d.MessagesSent != 0 {
		t.Fatalf("canceled send still wrote %d frames", d.MessagesSent)
	}
}

// TestDialRetryOption exercises WithRetryDial against a machine whose
// address only becomes dialable after the first attempts fail.
func TestDialRetryOption(t *testing.T) {
	tr := transport.TCP{}
	// Reserve an address, then close it so the first dials fail.
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr()
	l.Close()

	c := NewClient(tr, StaticDirectory{addr})
	defer c.Close()
	before := metrics.Default.Snapshot()
	if err := c.Ping(bg, 0); err == nil {
		t.Fatal("ping of dead address succeeded")
	}
	// Bring a real server up at that address, racing the retry backoff.
	env := NewEnv(0)
	srv, err := NewServer(0, tr, addr, env)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv.Close()
	if err := c.Ping(bg, 0, WithRetryDial(10)); err != nil {
		t.Fatalf("ping with retry: %v", err)
	}
	if metrics.Default.Snapshot().Sub(before).DialRetries == 0 {
		// The first dial may have succeeded if the server came up fast;
		// only assert when retries were actually needed.
		t.Log("dial succeeded without retries (server bound quickly)")
	}
}

// TestTimeoutBoundsDialPhase pins the fix for per-call deadlines not
// covering dialing: a WithTimeout call against an undialable machine
// must fail within the timeout even with a large retry budget.
func TestTimeoutBoundsDialPhase(t *testing.T) {
	tr := transport.TCP{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr()
	l.Close() // nothing is listening here anymore

	c := NewClient(tr, StaticDirectory{addr})
	defer c.Close()
	start := time.Now()
	err = c.Ping(bg, 0, WithTimeout(100*time.Millisecond), WithRetryDial(1000))
	if err == nil {
		t.Fatal("ping of dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial retries ran %v, want bounded by the 100ms call timeout", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded through the dial phase", err)
	}
	// Both ways to wait; which of timer and dial loop reports the timeout
	// first is a race, so the texts may differ.
	start = time.Now()
	syncErr, asyncErr := callForms(bg, c, Ref{Machine: 0, Object: 1, Class: "test.Counter"}, "get", nil,
		WithTimeout(100*time.Millisecond), WithRetryDial(1000))
	if !errors.Is(syncErr, context.DeadlineExceeded) || !errors.Is(asyncErr, context.DeadlineExceeded) {
		t.Fatalf("Call: %v, CallAsync: %v, want DeadlineExceeded through the dial phase from both", syncErr, asyncErr)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("dial retries of two calls ran %v, want each bounded by its 100ms timeout", elapsed)
	}
}

// TestExpiredDeadlineFailsFast pins the fix for WithDeadline in the
// past: it must fail the call immediately, not disable the bound.
func TestExpiredDeadlineFailsFast(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	past := WithDeadline(time.Now().Add(-time.Second))
	err := c.Ping(bg, 0, past)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
	ref, err := c.New(bg, 0, "test.Echo", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// Both ways to wait. The deadline goes out on the wire too, so the
	// server's refusal may beat the client's own timer: either way the
	// error is DeadlineExceeded, in whose words is a race.
	syncErr, asyncErr := callForms(bg, c, ref, "machine", nil, past)
	if !errors.Is(syncErr, context.DeadlineExceeded) || !errors.Is(asyncErr, context.DeadlineExceeded) {
		t.Fatalf("past its deadline: Call: %v, CallAsync: %v, want DeadlineExceeded from both", syncErr, asyncErr)
	}
}

// TestNilContextIsBackground: every operation and every way to wait
// accepts a nil context and answers as under context.Background().
func TestNilContextIsBackground(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	start := func(e *wire.Encoder) error { e.PutInt(41); return nil }
	add := func(e *wire.Encoder) error { e.PutInt(1); e.PutInt(0); return nil }
	run := func(ctx context.Context) (out []string) {
		var ref, ref2 Ref
		for _, step := range []struct {
			name string
			do   func() (any, error)
		}{
			{"New", func() (r any, err error) { ref, err = c.New(ctx, 0, "test.Counter", start); return ref.Class, err }},
			{"NewAsync, Ref", func() (r any, err error) {
				ref2, err = c.NewAsync(ctx, 0, "test.Counter", start).Ref(ctx)
				return ref2.Class, err
			}},
			{"Call", func() (any, error) {
				d, err := c.Call(ctx, ref, "add", add)
				defer d.Release()
				return d.Varint(), err
			}},
			{"CallAsync, Wait", func() (any, error) {
				fut := c.CallAsync(ctx, ref, "add", add)
				defer fut.Release()
				d, err := fut.Wait(ctx)
				return d.Varint(), err
			}},
			{"CallAsync, Err", func() (any, error) { return nil, c.CallAsync(ctx, ref, "fail", nil).Err(ctx) }},
			{"Ping", func() (any, error) { return nil, c.Ping(ctx, 0) }},
			{"Stat", func() (any, error) { live, _, err := c.Stat(ctx, 0); return live, err }},
			{"Delete", func() (any, error) { return nil, errors.Join(c.Delete(ctx, ref), c.Delete(ctx, ref2)) }},
		} {
			got, err := step.do()
			out = append(out, fmt.Sprintf("%s: %v, %v", step.name, got, err))
		}
		return out
	}
	var none context.Context
	want, got := run(bg), run(none)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("with a nil context %s\nwith context.Background() %s", got[i], want[i])
		}
	}
}
