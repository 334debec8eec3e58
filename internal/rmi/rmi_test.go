package rmi

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// bg is the neutral context for test call sites with no deadline.
var bg = context.Background()

// ---- test classes -------------------------------------------------------
//
// These registrations are the "compiler output" for a handful of toy
// classes used across the runtime tests.

// counter is a stateful object with serial methods.
type counter struct {
	n        int64
	log      []int // ordered ids of Add calls, for FIFO verification
	mu       sync.Mutex
	destroys atomic.Int64
}

// slowpoke blocks in a serial method until released; used for overlap and
// deadlock tests.
type slowpoke struct {
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

// releaseSlowpoke returns the release of the test.Slowpoke at ref, for a
// test that parks it in "block" and lets a server close around it: the
// object's process, and the Close that gave up waiting for it, then end
// with the test.
func releaseSlowpoke(t *testing.T, srv *Server, ref Ref) func() {
	obj, ok := srv.Object(ref.Object)
	if !ok {
		t.Fatalf("no object %d on the server", ref.Object)
	}
	return func() { close(obj.(*slowpoke).release) }
}

// echo returns its arguments.
type echo struct{}

// peerHolder stores a group of refs (SetGroup pattern) and can call peers.
type peerHolder struct {
	id    int
	peers []Ref
	mu    sync.Mutex
	inbox []int
}

func init() {
	Register("test.Counter", func(env *Env, args *wire.Decoder) (any, error) {
		start := args.Int()
		if args.Err() != nil {
			return nil, args.Err()
		}
		if start < 0 {
			return nil, fmt.Errorf("negative start %d", start)
		}
		return &counter{n: int64(start)}, nil
	}).
		Method("add", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			c := obj.(*counter)
			delta := args.Int()
			id := args.Int()
			c.mu.Lock()
			c.n += int64(delta)
			c.log = append(c.log, id)
			c.mu.Unlock()
			reply.PutVarint(c.n)
			return nil
		}).
		Method("get", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			c := obj.(*counter)
			c.mu.Lock()
			defer c.mu.Unlock()
			reply.PutVarint(c.n)
			return nil
		}).
		Method("order", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			c := obj.(*counter)
			c.mu.Lock()
			defer c.mu.Unlock()
			reply.PutInts(c.log)
			return nil
		}).
		Method("fail", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			return errors.New("deliberate failure")
		}).
		Method("explode", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			panic("kaboom")
		})

	Register("test.CounterBoom", func(env *Env, args *wire.Decoder) (any, error) {
		panic("constructor kaboom")
	})

	Register("test.Slowpoke", func(env *Env, args *wire.Decoder) (any, error) {
		return &slowpoke{release: make(chan struct{}), entered: make(chan struct{})}, nil
	}).
		Method("block", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			s := obj.(*slowpoke)
			s.once.Do(func() { close(s.entered) })
			<-s.release
			return nil
		}).
		ConcurrentMethod("unblock", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			s := obj.(*slowpoke)
			<-s.entered // wait until block is inside the serial method
			close(s.release)
			return nil
		}).
		Method("sleep", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			ms := args.Int()
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return nil
		})

	Register("test.Echo", func(env *Env, args *wire.Decoder) (any, error) {
		return &echo{}, nil
	}).
		Method("echo", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutBytes(args.Bytes())
			return nil
		}).
		Method("machine", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutInt(env.Machine)
			return nil
		})

	Register("test.Peer", func(env *Env, args *wire.Decoder) (any, error) {
		return &peerHolder{id: args.Int()}, args.Err()
	}).
		Method("setGroup", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			p := obj.(*peerHolder)
			// Deep copy (§4): the refs arrive by value in the message, so
			// storing them locally requires no further remote access.
			p.peers = args.Refs()
			return args.Err()
		}).
		Method("tellPeers", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			p := obj.(*peerHolder)
			if env.Client == nil {
				return errors.New("no outbound client on this machine")
			}
			for _, peer := range p.peers {
				if peer.Machine == env.Machine {
					continue // skip self by machine (one peer per machine in tests)
				}
				if _, err := env.Client.Call(bg, peer, "deliver", func(e *wire.Encoder) error {
					e.PutInt(p.id)
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		}).
		ConcurrentMethod("deliver", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			p := obj.(*peerHolder)
			from := args.Int()
			p.mu.Lock()
			p.inbox = append(p.inbox, from)
			p.mu.Unlock()
			return nil
		}).
		Method("inbox", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			p := obj.(*peerHolder)
			p.mu.Lock()
			defer p.mu.Unlock()
			reply.PutInts(p.inbox)
			return nil
		})
}

// destructible tracks OnDestroy invocations.
type destructible struct {
	destroyed *atomic.Int64
}

func (d *destructible) OnDestroy(env *Env) error {
	d.destroyed.Add(1)
	return nil
}

var destructions atomic.Int64

func init() {
	Register("test.Destructible", func(env *Env, args *wire.Decoder) (any, error) {
		return &destructible{destroyed: &destructions}, nil
	}).Method("noop", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		return nil
	})
}

// ---- harness ------------------------------------------------------------

func TestMain(m *testing.M) { os.Exit(leakChecked(m)) }

// leakChecked runs the package's tests and then requires the goroutines
// they started to be gone: the count gets 5 s to fall back to its value
// before the run, else the stacks are dumped and the run fails.
func leakChecked(m *testing.M) int {
	before := goroutines()
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0 && goroutines() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before them\n", goroutines(), before)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			return 1
		}
	}
	return code
}

// goroutines counts the live goroutines except those os/signal started:
// a fuzzing run's engine calls signal.Notify, whose goroutine outlives
// the tests and is none of theirs.
func goroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "\ncreated by os/signal.") {
			count++
		}
	}
	return count
}

// testNode is one machine: a server plus its outbound client.
type testNode struct {
	server *Server
	client *Client
}

// startCluster brings up n machines over the given transport and returns
// a client for machine 0's "user program" plus a shutdown func.
func startCluster(t testing.TB, tr transport.Transport, n int) ([]*testNode, func()) {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make(StaticDirectory, n)
	for i := 0; i < n; i++ {
		env := NewEnv(i)
		env.Machines = n
		srv, err := NewServer(i, tr, "", env)
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		nodes[i] = &testNode{server: srv}
		addrs[i] = srv.Addr()
	}
	for _, node := range nodes {
		node.client = node.server.Env().AttachClient(tr, addrs)
	}
	return nodes, func() {
		for _, node := range nodes {
			node.client.Close()
			node.server.Close()
		}
	}
}

// callForms issues one call the synchronous way (Call) and the
// asynchronous way (CallAsync, then Err).
func callForms(ctx context.Context, c *Client, ref Ref, method string, args ArgEncoder, opts ...CallOption) (syncErr, asyncErr error) {
	d, syncErr := c.Call(ctx, ref, method, args, opts...)
	d.Release()
	return syncErr, c.CallAsync(ctx, ref, method, args, opts...).Err(ctx)
}

// eachForm is callForms for an outcome that does not depend on timing: the
// two must read the same — one request path, two ways to wait — and each
// is handed to check.
func eachForm(t *testing.T, ctx context.Context, c *Client, ref Ref, method string, args ArgEncoder, opts []CallOption, check func(form string, err error)) {
	t.Helper()
	syncErr, asyncErr := callForms(ctx, c, ref, method, args, opts...)
	if fmt.Sprint(syncErr) != fmt.Sprint(asyncErr) {
		t.Errorf("%s: the two forms disagree:\n  Call:      %v\n  CallAsync: %v", method, syncErr, asyncErr)
	}
	check("Call", syncErr)
	check("CallAsync", asyncErr)
}

func eachTransport(t *testing.T, f func(t *testing.T, tr transport.Transport)) {
	t.Run("inproc", func(t *testing.T) { f(t, transport.NewInproc(transport.LinkModel{})) })
	t.Run("tcp", func(t *testing.T) { f(t, transport.TCP{}) })
}

// ---- tests --------------------------------------------------------------

func TestNewCallDelete(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		nodes, stop := startCluster(t, tr, 2)
		defer stop()
		c := nodes[0].client

		ref, err := c.New(bg, 1, "test.Counter", func(e *wire.Encoder) error {
			e.PutInt(10)
			return nil
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if ref.Machine != 1 || ref.Class != "test.Counter" || ref.Object == 0 {
			t.Fatalf("bad ref: %v", ref)
		}

		d, err := c.Call(bg, ref, "add", func(e *wire.Encoder) error {
			e.PutInt(5)
			e.PutInt(0)
			return nil
		})
		if err != nil {
			t.Fatalf("add: %v", err)
		}
		if got := d.Varint(); got != 15 {
			t.Fatalf("add result = %d, want 15", got)
		}

		d, err = c.Call(bg, ref, "get", nil)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if got := d.Varint(); got != 15 {
			t.Fatalf("get = %d, want 15", got)
		}

		if err := c.Delete(bg, ref); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, err := c.Call(bg, ref, "get", nil); !errors.Is(err, ErrNoSuchObject) {
			t.Fatalf("call after delete: err = %v, want ErrNoSuchObject", err)
		}
		if err := c.Delete(bg, ref); !errors.Is(err, ErrNoSuchObject) {
			t.Fatalf("double delete: err = %v, want ErrNoSuchObject", err)
		}
	})
}

func TestRemoteErrors(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client

	if _, err := c.New(bg, 1, "test.NoSuchClass", nil); !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("unknown class: %v", err)
	}
	// Constructor returns error.
	if _, err := c.New(bg, 1, "test.Counter", func(e *wire.Encoder) error {
		e.PutInt(-1)
		return nil
	}); err == nil {
		t.Error("expected constructor error")
	}
	// Constructor panics.
	if _, err := c.New(bg, 1, "test.CounterBoom", nil); err == nil {
		t.Error("expected constructor panic -> error")
	}

	ref, err := c.New(bg, 1, "test.Counter", func(e *wire.Encoder) error { e.PutInt(0); return nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eachForm(t, bg, c, ref, "nonexistent", nil, nil, func(form string, err error) {
		if !errors.Is(err, ErrNoSuchMethod) {
			t.Errorf("%s of an unknown method: %v", form, err)
		}
	})
	eachForm(t, bg, c, ref, "fail", nil, nil, func(form string, err error) {
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Errorf("%s: error not a RemoteError: %T %v", form, err, err)
		} else if re.Machine != 1 || re.Class != "test.Counter" || re.Method != "fail" {
			t.Errorf("%s: RemoteError metadata: %+v", form, re)
		}
	})
	// Panicking method becomes an error, object survives.
	if _, err := c.Call(bg, ref, "explode", nil); err == nil {
		t.Error("expected panic -> error")
	}
	if _, err := c.Call(bg, ref, "get", nil); err != nil {
		t.Errorf("object dead after method panic: %v", err)
	}
	// Call on nil ref.
	eachForm(t, bg, c, Ref{}, "get", nil, nil, func(form string, err error) {
		if err == nil {
			t.Errorf("%s on a nil ref: expected an error", form)
		}
	})
	if err := c.Delete(bg, Ref{}); err == nil {
		t.Error("expected error deleting nil ref")
	}
}

func TestArgumentDecodeErrorReported(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client
	ref, err := c.New(bg, 0, "test.Counter", func(e *wire.Encoder) error { e.PutInt(0); return nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// add expects two ints; send none. The method reads garbage and the
	// server must report the decode error rather than succeed silently.
	if _, err := c.Call(bg, ref, "add", nil); err == nil {
		t.Fatal("expected argument decode error")
	}
}

// TestMailboxFIFO pipelines async adds and verifies they executed in issue
// order: the object is a process consuming its mailbox in order.
func TestMailboxFIFO(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client
	ref, err := c.New(bg, 1, "test.Counter", func(e *wire.Encoder) error { e.PutInt(0); return nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 200
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = c.CallAsync(bg, ref, "add", func(e *wire.Encoder) error {
			e.PutInt(1)
			e.PutInt(i)
			return nil
		})
	}
	if err := WaitAll(bg, futs); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	d, err := c.Call(bg, ref, "order", nil)
	if err != nil {
		t.Fatalf("order: %v", err)
	}
	got := d.Ints()
	if len(got) != n {
		t.Fatalf("log length = %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("log[%d] = %d: mailbox violated FIFO", i, v)
		}
	}
}

// TestConcurrentMethodRunsDuringSerial proves a ConcurrentMethod can
// execute while the object is blocked inside a serial method — the
// property that makes peer-to-peer exchanges deadlock-free.
func TestConcurrentMethodRunsDuringSerial(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client
	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	blockFut := c.CallAsync(bg, ref, "block", nil)
	// unblock waits for block to be entered, then releases it. If
	// "unblock" were serial this would deadlock.
	done := make(chan error, 1)
	go func() { done <- c.CallAsync(bg, ref, "unblock", nil).Err(bg) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: concurrent method did not run during serial method")
	}
	if err := blockFut.Err(bg); err != nil {
		t.Fatalf("block: %v", err)
	}
}

// TestAsyncOverlap verifies the §4 claim: K pipelined slow calls on K
// distinct objects complete in ~max time, not ~sum.
func TestAsyncOverlap(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 4)
	defer stop()
	c := nodes[0].client

	const k = 4
	const ms = 50
	refs := make([]Ref, k)
	for i := range refs {
		var err error
		refs[i], err = c.New(bg, i, "test.Slowpoke", nil)
		if err != nil {
			t.Fatalf("New %d: %v", i, err)
		}
	}
	start := time.Now()
	futs := make([]*Future, k)
	for i, ref := range refs {
		futs[i] = c.CallAsync(bg, ref, "sleep", func(e *wire.Encoder) error {
			e.PutInt(ms)
			return nil
		})
	}
	if err := WaitAll(bg, futs); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed > k*ms*time.Millisecond*3/4 {
		t.Errorf("async calls serialized: %v for %d x %dms", elapsed, k, ms)
	}

	// And the sequential §2 form takes ~sum, for contrast.
	start = time.Now()
	for _, ref := range refs {
		if _, err := c.Call(bg, ref, "sleep", func(e *wire.Encoder) error {
			e.PutInt(ms)
			return nil
		}); err != nil {
			t.Fatalf("sync sleep: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed < k*ms*time.Millisecond {
		t.Errorf("sync calls overlapped unexpectedly: %v", elapsed)
	}
}

func TestSpawnFanOutBarrierDelete(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		nodes, stop := startCluster(t, tr, 4)
		defer stop()
		c := nodes[0].client

		machines := []int{0, 1, 2, 3}
		refs, err := SpawnRefs(bg, c, machines, "test.Counter", func(i int, e *wire.Encoder) error {
			e.PutInt(i * 100)
			return nil
		}, DefaultWindow)
		if err != nil {
			t.Fatalf("SpawnRefs: %v", err)
		}
		if len(refs) != 4 {
			t.Fatalf("%d members", len(refs))
		}
		for i, ref := range refs {
			if ref.Machine != i {
				t.Fatalf("member %d on machine %d", i, ref.Machine)
			}
		}

		if err := FanOut(bg, c, refs, "add", func(i int, e *wire.Encoder) error {
			e.PutInt(i)
			e.PutInt(0)
			return nil
		}, nil, DefaultWindow); err != nil {
			t.Fatalf("FanOut: %v", err)
		}
		if err := BarrierRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("Barrier: %v", err)
		}

		sums := make([]int64, len(refs))
		if err := FanOut(bg, c, refs, "get", nil, func(i int, d *wire.Decoder) error {
			sums[i] = d.Varint()
			return d.Err()
		}, DefaultWindow); err != nil {
			t.Fatalf("FanOut with results: %v", err)
		}
		for i, s := range sums {
			if want := int64(i*100 + i); s != want {
				t.Errorf("member %d sum = %d, want %d", i, s, want)
			}
		}

		if err := DeleteRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("delete: %v", err)
		}
		for i, ref := range refs {
			if _, err := c.Call(bg, ref, "get", nil); !errors.Is(err, ErrNoSuchObject) {
				t.Errorf("member %d alive after delete: %v", i, err)
			}
		}
	})
}

// TestFanOutWindowOne is the paper's plain member-by-member loop (§2
// semantics): window 1 completes each call before issuing the next.
func TestFanOutWindowOne(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client
	refs, err := SpawnRefs(bg, c, []int{0, 1}, "test.Counter", func(i int, e *wire.Encoder) error {
		e.PutInt(0)
		return nil
	}, DefaultWindow)
	if err != nil {
		t.Fatalf("SpawnRefs: %v", err)
	}
	defer DeleteRefs(bg, c, refs, DefaultWindow)
	if err := FanOut(bg, c, refs, "add", func(i int, e *wire.Encoder) error {
		e.PutInt(i + 1)
		e.PutInt(0)
		return nil
	}, nil, 1); err != nil {
		t.Fatalf("FanOut: %v", err)
	}
	d, err := c.Call(bg, refs[1], "get", nil)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got := d.Varint(); got != 2 {
		t.Errorf("member 1 = %d, want 2", got)
	}
}

func TestSpawnFailureCleansUp(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client
	// Second member's constructor fails (negative start).
	_, err := SpawnRefs(bg, c, []int{0, 1}, "test.Counter", func(i int, e *wire.Encoder) error {
		if i == 1 {
			e.PutInt(-1)
		} else {
			e.PutInt(0)
		}
		return nil
	}, DefaultWindow)
	if err == nil {
		t.Fatal("expected spawn failure")
	}
	// The successfully spawned member must have been deleted.
	live, _, err := c.Stat(bg, 0)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if live != 0 {
		t.Errorf("machine 0 has %d live objects after failed spawn", live)
	}
}

// TestRefsTravel verifies remote pointers pass between processes and that
// server-side objects can call their peers (SetGroup + deep copy, §4).
func TestRefsTravel(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		nodes, stop := startCluster(t, tr, 3)
		defer stop()
		c := nodes[0].client

		refs, err := SpawnRefs(bg, c, []int{0, 1, 2}, "test.Peer", func(i int, e *wire.Encoder) error {
			e.PutInt(i)
			return nil
		}, DefaultWindow)
		if err != nil {
			t.Fatalf("SpawnRefs: %v", err)
		}
		defer DeleteRefs(bg, c, refs, DefaultWindow)

		// Deep-copy distribution of the member table (§4 SetGroup).
		if err := FanOut(bg, c, refs, "setGroup", func(i int, e *wire.Encoder) error {
			e.PutRefs(refs)
			return nil
		}, nil, DefaultWindow); err != nil {
			t.Fatalf("setGroup: %v", err)
		}

		// Every member tells every other member its id, via peer RMI.
		if err := FanOut(bg, c, refs, "tellPeers", nil, nil, DefaultWindow); err != nil {
			t.Fatalf("tellPeers: %v", err)
		}

		// Each inbox must contain the other two ids.
		for i := 0; i < 3; i++ {
			d, err := c.Call(bg, refs[i], "inbox", nil)
			if err != nil {
				t.Fatalf("inbox %d: %v", i, err)
			}
			got := d.Ints()
			if len(got) != 2 {
				t.Fatalf("member %d inbox = %v, want 2 entries", i, got)
			}
			seen := map[int]bool{}
			for _, v := range got {
				seen[v] = true
			}
			if seen[i] || len(seen) != 2 {
				t.Errorf("member %d inbox wrong: %v", i, got)
			}
		}
	})
}

func TestEnvResources(t *testing.T) {
	env := NewEnv(3)
	if _, err := env.MustResource("disk/0"); err == nil {
		t.Fatal("expected missing resource error")
	}
	env.PutResource("disk/0", 42)
	v, ok := env.Resource("disk/0")
	if !ok || v.(int) != 42 {
		t.Fatalf("resource lookup: %v %v", v, ok)
	}
	if _, err := env.MustResource("disk/0"); err != nil {
		t.Fatalf("MustResource: %v", err)
	}
	if n := len(env.shared.resources); n != 1 {
		t.Fatalf("%d resources installed, want disk/0 alone", n)
	}
}

func TestDestructorRuns(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client
	before := destructions.Load()
	ref, err := c.New(bg, 0, "test.Destructible", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Delete(bg, ref); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := destructions.Load() - before; got != 1 {
		t.Fatalf("OnDestroy ran %d times, want 1", got)
	}
}

func TestServerCloseRunsDestructors(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	before := destructions.Load()
	if _, err := c.New(bg, 0, "test.Destructible", nil); err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := destructions.Load() - before; got != 1 {
		t.Fatalf("OnDestroy on shutdown ran %d times, want 1", got)
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestPingStatAndBuiltins(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client
	if err := c.Ping(bg, 1); err != nil {
		t.Fatalf("ping: %v", err)
	}
	live0, total0, err := c.Stat(bg, 1)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	ref, err := c.New(bg, 1, "test.Echo", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	live, total, err := c.Stat(bg, 1)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if live != live0+1 || total != total0+1 {
		t.Errorf("stat after new: live %d->%d total %d->%d", live0, live, total0, total)
	}
	if err := BarrierRefs(bg, c, []Ref{ref}, 1); err != nil {
		t.Fatalf("ping object: %v", err)
	}
	// Echo round trip, and env.Machine visible to methods.
	d, err := c.Call(bg, ref, "machine", nil)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if got := d.Int(); got != 1 {
		t.Errorf("machine = %d, want 1", got)
	}
}

// genericKV is a class written against the tagged generic layer: its
// constructor and methods read Anys and write Anys, so clients can use
// New/Call with AnyArgs and Decoder.Anys without hand-written stubs.
type genericKV struct {
	mu sync.Mutex
	m  map[string]float64
}

func init() {
	Register("test.GenericKV", func(env *Env, args *wire.Decoder) (any, error) {
		vals, err := args.Anys()
		if err != nil {
			return nil, err
		}
		kv := &genericKV{m: make(map[string]float64)}
		if len(vals) == 1 {
			kv.m[vals[0].(string)] = 0
		}
		return kv, nil
	}).
		Method("set", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			kv := obj.(*genericKV)
			vals, err := args.Anys()
			if err != nil {
				return err
			}
			if len(vals) != 2 {
				return fmt.Errorf("set wants 2 args, got %d", len(vals))
			}
			kv.mu.Lock()
			kv.m[vals[0].(string)] = vals[1].(float64)
			kv.mu.Unlock()
			return reply.PutAnys(nil)
		}).
		Method("get", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			kv := obj.(*genericKV)
			vals, err := args.Anys()
			if err != nil {
				return err
			}
			kv.mu.Lock()
			v, ok := kv.m[vals[0].(string)]
			kv.mu.Unlock()
			return reply.PutAnys([]any{v, ok})
		})
}

func TestCallArgsGenericLayer(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client
	ref, err := c.New(bg, 0, "test.GenericKV", AnyArgs("seed"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// call sends args tagged and decodes the tagged results.
	call := func(method string, args ...any) ([]any, error) {
		d, err := c.Call(bg, ref, method, AnyArgs(args...))
		if err != nil {
			return nil, err
		}
		defer d.Release()
		return d.Anys()
	}
	if _, err := call("set", "pi", 3.14159); err != nil {
		t.Fatalf("set: %v", err)
	}
	out, err := call("get", "pi")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if len(out) != 2 || out[0].(float64) != 3.14159 || out[1].(bool) != true {
		t.Fatalf("get result: %v", out)
	}
	out, err = call("get", "absent")
	if err != nil {
		t.Fatalf("get absent: %v", err)
	}
	if out[1].(bool) {
		t.Fatalf("absent key reported present")
	}
}

func TestStaticDirectory(t *testing.T) {
	d := StaticDirectory{"a", "b"}
	if d.Size() != 2 {
		t.Fatalf("size: %d", d.Size())
	}
	if _, err := d.Addr(-1); err == nil {
		t.Error("expected error for negative index")
	}
	if _, err := d.Addr(2); err == nil {
		t.Error("expected error for out-of-range index")
	}
	if a, err := d.Addr(1); err != nil || a != "b" {
		t.Errorf("Addr(1) = %q, %v", a, err)
	}
}

func TestClientCloseFailsInflight(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := NewClient(transport.NewInproc(transport.LinkModel{}), StaticDirectory{})
	c.Close()
	if _, err := c.New(bg, 0, "test.Counter", nil); !errors.Is(err, ErrClientClosed) {
		t.Errorf("New on closed client: %v", err)
	}
	eachForm(t, bg, c, Ref{Machine: 0, Object: 1, Class: "test.Counter"}, "get", nil, nil, func(form string, err error) {
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("%s on closed client: %v", form, err)
		}
	})
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	_ = nodes
}

func TestDialFailure(t *testing.T) {
	c := NewClient(transport.NewInproc(transport.LinkModel{}), StaticDirectory{"nowhere"})
	defer c.Close()
	if _, err := c.New(bg, 0, "test.Counter", nil); err == nil {
		t.Fatal("expected dial failure")
	}
	if err := c.Ping(bg, 0); err == nil {
		t.Fatal("expected ping failure")
	}
}

// registerBaseAndDerived registers test.Base and test.Derived once a
// process (the registry refuses a second time, and -count=2 runs the test
// twice) and returns the derived class.
var registerBaseAndDerived = sync.OnceValue(func() *ClassSpec {
	base := Register("test.Base", func(env *Env, args *wire.Decoder) (any, error) {
		return &counter{}, nil
	}).
		Method("who", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutString("base")
			return nil
		}).
		Method("shared", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutString("shared")
			return nil
		})

	derived := base.Extend("test.Derived", func(env *Env, args *wire.Decoder) (any, error) {
		return &counter{}, nil
	})
	derived.Override("who", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		reply.PutString("derived")
		return nil
	})
	derived.Method("extra", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		reply.PutString("extra")
		return nil
	})
	return derived
})

func TestInheritanceExtendOverride(t *testing.T) {
	derived := registerBaseAndDerived()

	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client

	bref, _ := c.New(bg, 0, "test.Base", nil)
	dref, _ := c.New(bg, 0, "test.Derived", nil)

	check := func(ref Ref, method, want string) {
		t.Helper()
		d, err := c.Call(bg, ref, method, nil)
		if err != nil {
			t.Fatalf("%s.%s: %v", ref.Class, method, err)
		}
		if got := d.String(); got != want {
			t.Errorf("%s.%s = %q, want %q", ref.Class, method, got, want)
		}
	}
	check(bref, "who", "base")
	check(dref, "who", "derived")   // override
	check(dref, "shared", "shared") // inherited
	check(dref, "extra", "extra")   // added
	if _, err := c.Call(bg, bref, "extra", nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("base must not have derived method: %v", err)
	}
	if names := derived.MethodNames(); len(names) != 3 {
		t.Errorf("derived methods: %v", names)
	}
}

func TestRegistryGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty class name", func() { Register("", nil) })
	mustPanic("duplicate class", func() {
		Register("test.Dup", nil)
		Register("test.Dup", nil)
	})
	mustPanic("reserved method name", func() {
		Register("test.Reserved", nil).Method("_ping", nil)
	})
	mustPanic("duplicate method", func() {
		cl := Register("test.DupMethod", nil)
		noop := func(any, *Env, *wire.Decoder, *wire.Encoder) error { return nil }
		cl.Method("m", noop)
		cl.Method("m", noop)
	})
	mustPanic("override unknown", func() {
		Register("test.OverrideUnknown", nil).Override("m", nil)
	})
	if _, ok := LookupClass("test.Dup"); !ok {
		t.Error("registered class not found")
	}
	found := false
	for _, n := range RegisteredClasses() {
		if n == "test.Dup" {
			found = true
		}
	}
	if !found {
		t.Error("RegisteredClasses missing test.Dup")
	}
}

func TestAddTakeObject(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()

	obj := &counter{n: 99}
	ref, err := srv.AddObject("test.Counter", obj)
	if err != nil {
		t.Fatalf("AddObject: %v", err)
	}
	d, err := c.Call(bg, ref, "get", nil)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := d.Varint(); got != 99 {
		t.Fatalf("get = %d", got)
	}
	got, err := srv.TakeObject(ref.Object)
	if err != nil {
		t.Fatalf("TakeObject: %v", err)
	}
	if got.(*counter).n != 99 {
		t.Fatalf("taken object state wrong")
	}
	// Object is gone from the server.
	if _, err := c.Call(bg, ref, "get", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("call after take: %v", err)
	}
	if _, err := srv.TakeObject(ref.Object); err == nil {
		t.Fatal("double take should fail")
	}
	if _, err := srv.AddObject("no.such.class", obj); !errors.Is(err, ErrNoSuchClass) {
		t.Fatalf("AddObject unknown class: %v", err)
	}
}

func TestObjectLookup(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	ref, err := srv.AddObject("test.Counter", &counter{n: 5})
	if err != nil {
		t.Fatalf("AddObject: %v", err)
	}
	obj, ok := srv.Object(ref.Object)
	if !ok || obj.(*counter).n != 5 {
		t.Fatalf("Object lookup failed")
	}
	if _, ok := srv.Object(9999); ok {
		t.Fatal("phantom object")
	}
	if srv.NumObjects() != 1 {
		t.Fatalf("NumObjects = %d", srv.NumObjects())
	}
	if srv.Machine() != 0 {
		t.Fatalf("Machine = %d", srv.Machine())
	}
}

func TestManyObjectsManyClients(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 4)
	defer stop()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := nodes[w].client
			for i := 0; i < 25; i++ {
				m := (w + i) % 4
				ref, err := c.New(bg, m, "test.Counter", func(e *wire.Encoder) error {
					e.PutInt(i)
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
				d, err := c.Call(bg, ref, "add", func(e *wire.Encoder) error {
					e.PutInt(1)
					e.PutInt(0)
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
				if got := d.Varint(); got != int64(i+1) {
					errCh <- fmt.Errorf("worker %d obj %d: got %d", w, i, got)
					return
				}
				if err := c.Delete(bg, ref); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestFutureDoneChannel(t *testing.T) {
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client
	ref, err := c.New(bg, 0, "test.Counter", func(e *wire.Encoder) error { e.PutInt(0); return nil })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fut := c.CallAsync(bg, ref, "get", nil)
	select {
	case <-fut.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("future never completed")
	}
	if _, err := fut.Wait(bg); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := fut.Err(bg); err != nil {
		t.Fatalf("err: %v", err)
	}
}
