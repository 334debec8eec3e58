package rmi

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

func init() {
	// slowCtor stalls its constructor, so a failing sibling in the same
	// spawn surfaces while this member's construction future is still
	// unresolved — the cleanup path the fan-out engine must cover.
	Register("test.SlowCtor", func(env *Env, args *wire.Decoder) (any, error) {
		stallMs := args.Int()
		fail := args.Bool()
		if err := args.Err(); err != nil {
			return nil, err
		}
		if stallMs > 0 {
			time.Sleep(time.Duration(stallMs) * time.Millisecond)
		}
		if fail {
			return nil, fmt.Errorf("slowctor: told to fail")
		}
		return &echo{}, nil
	})

	// spin busies its caller's goroutine for the time its argument
	// gives, in nanoseconds.
	Register("test.Spin", func(env *Env, args *wire.Decoder) (any, error) {
		return &echo{}, nil
	}).
		Method("spin", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			d := time.Duration(args.Int())
			for start := time.Now(); time.Since(start) < d; {
			}
			return args.Err()
		})
}

// TestFanOutJoinsAllErrors verifies the collective error contract:
// every member is attempted and every failure is reported with its
// member index — no silent first-error abort.
func TestFanOutJoinsAllErrors(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 3)
	defer stop()
	c := nodes[0].client
	refs, err := SpawnRefs(bg, c, []int{0, 1, 2}, "test.Counter", func(i int, e *wire.Encoder) error {
		e.PutInt(0)
		return nil
	}, DefaultWindow)
	if err != nil {
		t.Fatalf("SpawnRefs: %v", err)
	}
	defer DeleteRefs(bg, c, refs, DefaultWindow)

	for _, call := range []struct {
		name string
		run  func() error
	}{
		{"window 1", func() error { return FanOut(bg, c, refs, "fail", nil, nil, 1) }},
		{"windowed", func() error { return FanOut(bg, c, refs, "fail", nil, nil, DefaultWindow) }},
		{"with results", func() error {
			return FanOut(bg, c, refs, "fail", nil, func(i int, d *wire.Decoder) error { return nil }, DefaultWindow)
		}},
	} {
		err := call.run()
		if err == nil {
			t.Fatalf("%s: expected failure", call.name)
		}
		joined, ok := err.(interface{ Unwrap() []error })
		if !ok {
			t.Fatalf("%s: error is not a join: %v", call.name, err)
		}
		subs := joined.Unwrap()
		if len(subs) != len(refs) {
			t.Fatalf("%s: %d member errors, want %d: %v", call.name, len(subs), len(refs), err)
		}
		seen := map[int]bool{}
		for _, sub := range subs {
			var me *MemberError
			if !errors.As(sub, &me) {
				t.Fatalf("%s: member error %v lacks index", call.name, sub)
			}
			seen[me.Index] = true
		}
		for i := 0; i < len(refs); i++ {
			if !seen[i] {
				t.Fatalf("%s: member %d missing from %v", call.name, i, err)
			}
		}
	}

	// Counters on all members must still respond: the failed collective
	// attempted every member rather than aborting.
	if err := BarrierRefs(bg, c, refs, DefaultWindow); err != nil {
		t.Fatalf("barrier after failures: %v", err)
	}
}

// TestSpawnRefsFailureWithPendingFutures covers the leak path the
// historic group spawn missed: a member fails while sibling construction
// futures have not resolved yet. Cleanup must wait for them and delete
// every constructed member.
func TestSpawnRefsFailureWithPendingFutures(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 3)
	defer stop()
	c := nodes[0].client

	_, err := SpawnRefs(bg, c, []int{0, 1, 2}, "test.SlowCtor", func(i int, e *wire.Encoder) error {
		if i == 1 {
			e.PutInt(0) // fail fast...
			e.PutBool(true)
		} else {
			e.PutInt(30) // ...while the siblings are still constructing
			e.PutBool(false)
		}
		return nil
	}, DefaultWindow)
	if err == nil {
		t.Fatal("expected spawn failure")
	}
	var me *MemberError
	if !errors.As(err, &me) || me.Index != 1 {
		t.Fatalf("failure does not name member 1: %v", err)
	}
	for m := 0; m < 3; m++ {
		live, _, serr := c.Stat(bg, m)
		if serr != nil {
			t.Fatalf("stat %d: %v", m, serr)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after failed spawn", m, live)
		}
	}
}

// TestSpawnRefsCancellationCleansUp covers the abort path: the caller's
// context is canceled while constructions are in flight. The spawn must
// fail with the cancellation, yet still drain the in-flight futures
// (issued on a detached context, so their refs are recoverable) and
// delete every constructed object.
func TestSpawnRefsCancellationCleansUp(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 3)
	defer stop()
	c := nodes[0].client

	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := SpawnRefs(ctx, c, []int{0, 1, 2}, "test.SlowCtor", func(i int, e *wire.Encoder) error {
		e.PutInt(40) // every constructor outlives the cancellation
		e.PutBool(false)
		return nil
	}, DefaultWindow)
	if err == nil {
		t.Fatal("expected cancellation failure")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry the cancellation: %v", err)
	}
	for m := 0; m < 3; m++ {
		live, _, serr := c.Stat(bg, m)
		if serr != nil {
			t.Fatalf("stat %d: %v", m, serr)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after canceled spawn", m, live)
		}
	}
}

// TestSpawnRefsWindowed checks a spawn wider than its window completes
// and places members correctly.
func TestSpawnRefsWindowed(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client
	machines := []int{0, 1, 0, 1, 0, 1, 0}
	refs, err := SpawnRefs(bg, c, machines, "test.Counter", func(i int, e *wire.Encoder) error {
		e.PutInt(i)
		return nil
	}, 2)
	if err != nil {
		t.Fatalf("SpawnRefs: %v", err)
	}
	if len(refs) != len(machines) {
		t.Fatalf("%d refs", len(refs))
	}
	for i, r := range refs {
		if r.Machine != machines[i] {
			t.Fatalf("member %d on machine %d, want %d", i, r.Machine, machines[i])
		}
	}
	if err := DeleteRefs(bg, c, refs, 3); err != nil {
		t.Fatalf("DeleteRefs: %v", err)
	}
	for m := 0; m < 2; m++ {
		live, _, err := c.Stat(bg, m)
		if err != nil {
			t.Fatal(err)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects", m, live)
		}
	}
}

// TestSplitLoop pins the one windowed issue/settle loop every fan-out
// and every core.Array transfer runs on. Call 0 of each row blocks its
// object's serial mailbox until settle(0) releases it, so nothing
// completes during the first burst: the in-flight count seen at each
// issue is exact, not timing-dependent.
func TestSplitLoop(t *testing.T) {
	errAbort := errors.New("settle says stop")
	for _, row := range []struct {
		name            string
		n, window, burn int // burn: the size of the first burst, min(n, effective window)
		abortAt         int // settle(abortAt) fails; -1 never
	}{
		{"empty", 0, 4, 0, -1},
		{"sequential", 5, 1, 1, -1},
		{"windowed", 20, 4, 4, -1},
		{"window wider than n", 3, 8, 3, -1},
		{"window < 1 is DefaultWindow", DefaultWindow + 8, 0, DefaultWindow, -1},
		{"abort drains", 20, 8, 8, 5},
	} {
		t.Run(row.name, func(t *testing.T) {
			nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
			defer stop()
			c := nodes[0].client
			ref, err := c.New(bg, 1, "test.Slowpoke", nil)
			if err != nil {
				t.Fatal(err)
			}
			issued, settled := 0, 0
			err = SplitLoop(bg, row.n, row.window,
				func(i int) *Future {
					if i != issued {
						t.Errorf("issue(%d) after %d issues", i, issued)
					}
					out := c.InFlight()
					if out >= row.burn {
						t.Errorf("issue(%d) with %d outstanding, window %d", i, out, row.burn)
					}
					if i < row.burn && out != i {
						t.Errorf("first burst: issue(%d) saw %d outstanding", i, out)
					}
					issued++
					if i == 0 {
						return c.CallAsync(bg, ref, "block", nil)
					}
					return c.CallAsync(bg, ref, "sleep", func(e *wire.Encoder) error {
						e.PutInt(2)
						return nil
					})
				},
				func(i int, f *Future) error {
					if i != settled {
						t.Errorf("settle(%d) after %d settles", i, settled)
					}
					settled++
					if i == 0 {
						if issued != row.burn {
							t.Errorf("settle(0) after %d issues, want the whole first burst of %d", issued, row.burn)
						}
						if d, err := c.Call(bg, ref, "unblock", nil); err != nil {
							t.Errorf("unblock: %v", err)
						} else {
							d.Release()
						}
					}
					if err := f.Err(bg); err != nil {
						t.Errorf("call %d: %v", i, err)
					}
					if i == row.abortAt {
						return errAbort
					}
					return nil
				})
			wantIssued, wantSettled := row.n, row.n
			var wantErr error
			if row.abortAt >= 0 {
				// Everything the window let out before the failing settle, and
				// not one call more; nothing settled past the failure.
				wantIssued, wantSettled, wantErr = row.abortAt+row.burn, row.abortAt+1, errAbort
			}
			if err != wantErr || issued != wantIssued || settled != wantSettled {
				t.Errorf("err %v, %d issued, %d settled; want %v, %d, %d", err, issued, settled, wantErr, wantIssued, wantSettled)
			}
			// The calls behind an aborting settle are still queued on the
			// object when it fails (2 ms each, one mailbox): only a drain
			// leaves none pending.
			if out := c.InFlight(); out != 0 {
				t.Errorf("%d calls left pending", out)
			}
		})
	}
}

// BenchmarkFanOutTCP is one collective over real sockets: a 64 B echo
// fanned over 16 objects, 8 a machine, on two machines — 16 requests that
// leave in one write per machine and 16 replies that come back the same
// way.
func BenchmarkFanOutTCP(b *testing.B) {
	const members = 16
	nodes, stop := startCluster(b, transport.TCP{}, 3)
	defer stop()
	c := nodes[0].client
	refs := make([]Ref, members)
	for i := range refs {
		var err error
		if refs[i], err = c.New(bg, 1+i%2, "test.Echo", nil); err != nil {
			b.Fatalf("new %d: %v", i, err)
		}
	}
	payload := make([]byte, 64)
	args := func(_ int, e *wire.Encoder) error { e.PutBytes(payload); return nil }
	collect := func(_ int, d *wire.Decoder) error { d.BytesView(); return d.Err() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FanOut(bg, c, refs, "echo", args, collect, DefaultWindow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFanOutSpinTCP is one collective over real sockets of eight
// members on one machine whose method spins for 1 to 30 µs: it measures
// where running a reply group's members one after another on the
// connection's reader stops paying against waking each in its mailbox
// (memberBudget). inline/op counts the members run on the reader.
func BenchmarkFanOutSpinTCP(b *testing.B) {
	const members = 8
	nodes, stop := startCluster(b, transport.TCP{}, 2)
	defer stop()
	c := nodes[0].client
	refs := make([]Ref, members)
	for i := range refs {
		var err error
		if refs[i], err = c.New(bg, 1, "test.Spin", nil); err != nil {
			b.Fatalf("new %d: %v", i, err)
		}
	}
	for _, us := range []int{1, 2, 4, 8, 15, 30} {
		spin := time.Duration(us) * time.Microsecond
		args := func(_ int, e *wire.Encoder) error { e.PutInt(int(spin)); return nil }
		b.Run(fmt.Sprintf("%dus", us), func(b *testing.B) {
			runs := new(atomic.Int64)
			memberRuns.Store(runs)
			defer memberRuns.Store(nil)
			for i := 0; i < b.N; i++ {
				if err := FanOut(bg, c, refs, "spin", args, nil, DefaultWindow); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runs.Load())/float64(b.N), "inline/op")
		})
	}
}

// BenchmarkCallTCP is the synchronous call over real sockets: a 64 B echo
// to one object on each of two machines, alternating, one call at a time —
// the path of small_calls' op lane, and its profile target. bg: each call
// has its connection to itself, so its caller reads its own reply and the
// object's method runs on the server connection's reader. timeout: the
// same calls WithTimeout, whose replies the receive loop reads. relay: a
// call from machine 0's own client to an object on machine 0 whose method
// makes the echo call to another object there through that same client,
// on the same connection — the shape of a program on a cluster's client.
func BenchmarkCallTCP(b *testing.B) {
	nodes, stop := startCluster(b, transport.TCP{}, 3)
	defer stop()
	c := nodes[0].client
	var refs [2]Ref
	for i := range refs {
		var err error
		if refs[i], err = c.New(bg, 1+i, "test.Echo", nil); err != nil {
			b.Fatalf("new %d: %v", i, err)
		}
	}
	payload := make([]byte, 64)
	args := func(e *wire.Encoder) error { e.PutBytes(payload); return nil }
	run := func(b *testing.B, call func(i int) (*wire.Decoder, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := call(i)
			if err != nil {
				b.Fatal(err)
			}
			d.Release()
		}
	}
	b.Run("bg", func(b *testing.B) {
		run(b, func(i int) (*wire.Decoder, error) { return c.Call(bg, refs[i&1], "echo", args) })
	})
	b.Run("timeout", func(b *testing.B) {
		run(b, func(i int) (*wire.Decoder, error) {
			return c.Call(bg, refs[i&1], "echo", args, WithTimeout(time.Minute))
		})
	})
	b.Run("relay", func(b *testing.B) {
		target, err := c.New(bg, 0, "test.Echo", nil)
		if err != nil {
			b.Fatal(err)
		}
		rel := &relay{c: c, target: target}
		ref, err := nodes[0].server.AddObject("test.Relay", rel)
		if err != nil {
			b.Fatal(err)
		}
		entry, _ := nodes[0].server.lookup(ref.Object, false)
		rel.mb = entry.mb
		run(b, func(int) (*wire.Decoder, error) { return c.Call(bg, ref, "relay", args) })
	})
}
