package rmi

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/metrics"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// A collective's issue burst: held on the connection, flushed in one write
// per machine before the first wait. What is pinned here is what holding
// must not change — issue order per (connection, object), one answer per
// request whatever happens to the connection in between, the per-call
// timer — and the one thing it is for, the number of writes.

// journal is an object that remembers the order its calls ran in.
type journal struct{ notes []int }

func init() {
	Register("test.Journal", func(env *Env, args *wire.Decoder) (any, error) { return &journal{}, nil }).
		Method("note", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			j := obj.(*journal)
			j.notes = append(j.notes, args.Int())
			args.BytesView() // padding, to make a request as long as a test wants it
			return args.Err()
		}).
		Method("notes", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutInts(obj.(*journal).notes)
			return nil
		})
}

func noteArgs(id int, pad []byte) ArgEncoder {
	return func(e *wire.Encoder) error {
		e.PutInt(id)
		e.PutBytes(pad)
		return nil
	}
}

func notesOf(t *testing.T, c *Client, ref Ref) []int {
	t.Helper()
	d, err := c.Call(bg, ref, "notes", nil)
	if err != nil {
		t.Fatalf("notes: %v", err)
	}
	defer d.Release()
	return d.Ints()
}

// burstTap is a transport whose dialed connections report every write —
// how many messages each SendBurst carried — and can be made to die: with
// sendsFail their sends fail while their Recv keeps blocking (a peer whose
// death the reader has not seen yet), sever closes them and refuses every
// later dial. The connections its listeners accept, a server's, report
// their writes too, apart (answered).
type burstTap struct {
	transport.Transport
	sendsFail atomic.Bool
	severed   atomic.Bool

	mu      sync.Mutex
	bursts  []int
	answers []int
	conns   []transport.Conn
}

// tapListener hands out a server's connections under a burstTap.
type tapListener struct {
	transport.Listener
	t *burstTap
}

// answerTapConn is a server's connection under a burstTap: a Send is a
// write of one reply, a SendBurst one of as many as it carries.
type answerTapConn struct {
	transport.Conn
	t *burstTap
}

func (t *burstTap) Listen(addr string) (transport.Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tapListener{l, t}, nil
}

func (l *tapListener) Accept() (transport.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &answerTapConn{conn, l.t}, nil
}

func (c *answerTapConn) Send(msg []byte) error {
	c.t.answer(1)
	return c.Conn.Send(msg)
}

func (c *answerTapConn) SendBurst(frames []transport.Frame) error {
	c.t.answer(len(frames))
	return c.Conn.SendBurst(frames)
}

func (t *burstTap) answer(n int) {
	t.mu.Lock()
	t.answers = append(t.answers, n)
	t.mu.Unlock()
}

// answered returns the sizes of the reply writes since the last call,
// largest first: the writes of two servers have no order between them.
func (t *burstTap) answered() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.answers
	t.answers = nil
	slices.Sort(a)
	slices.Reverse(a)
	return a
}

type burstTapConn struct {
	transport.Conn
	t *burstTap
}

func (t *burstTap) Dial(addr string) (transport.Conn, error) {
	if t.severed.Load() {
		return nil, errors.New("burstTap: severed")
	}
	conn, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.conns = append(t.conns, conn)
	t.mu.Unlock()
	return &burstTapConn{conn, t}, nil
}

func (t *burstTap) sever() {
	t.severed.Store(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		c.Close()
	}
}

// written returns the sizes of the bursts written since the last call.
func (t *burstTap) written() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bursts
	t.bursts = nil
	return b
}

func (c *burstTapConn) SendBurst(frames []transport.Frame) error {
	c.t.mu.Lock()
	c.t.bursts = append(c.t.bursts, len(frames))
	c.t.mu.Unlock()
	if c.t.sendsFail.Load() {
		for _, f := range frames {
			transport.ReleaseFrame(f.Head)
		}
		return transport.ErrClosed
	}
	return c.Conn.SendBurst(frames)
}

// joined returns the errors a collective joined into err.
func joined(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return nil
}

// tappedCluster is three machines whose servers listen, and whose
// machine-0 client dials, through a burstTap; the objects of these tests
// live on machines 1 and 2.
func tappedCluster(t *testing.T, tr transport.Transport) (*Client, *burstTap) {
	t.Helper()
	tap := &burstTap{Transport: tr}
	nodes, stop := startCluster(t, tap, 3)
	t.Cleanup(stop)
	c := NewClient(tap, nodes[0].client.Directory())
	t.Cleanup(func() { c.Close() })
	return c, tap
}

// twoMachines places n members on machines 1 and 2, alternately.
func twoMachines(n int) []int {
	machines := make([]int, n)
	for i := range machines {
		machines[i] = 1 + i%2
	}
	return machines
}

// TestBurstIsOneWritePerMachine: every collective's requests leave in one
// write per machine, a request issued by itself leaves at once, and a
// window smaller than the collective ends a burst where the window does.
func TestBurstIsOneWritePerMachine(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		c, tap := tappedCluster(t, tr)
		expect := func(what string, want ...int) {
			t.Helper()
			if got := tap.written(); !slices.Equal(got, want) {
				t.Errorf("%s: bursts of %v messages, want %v", what, got, want)
			}
		}
		refs, err := SpawnRefs(bg, c, twoMachines(16), "test.Echo", nil, DefaultWindow)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		expect("SpawnRefs", 8, 8)
		payload := make([]byte, 64)
		args := func(_ int, e *wire.Encoder) error { e.PutBytes(payload); return nil }
		if err := FanOut(bg, c, refs, "echo", args, nil, DefaultWindow); err != nil {
			t.Fatalf("fan-out: %v", err)
		}
		expect("FanOut", 8, 8)
		if err := BarrierRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("barrier: %v", err)
		}
		expect("BarrierRefs", 8, 8)
		if err := FanOut(bg, c, refs, "echo", args, nil, 4); err != nil {
			t.Fatalf("fan-out, window 4: %v", err)
		}
		// Four at first, two a machine; then one for each that was settled.
		expect("FanOut at window 4", 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)

		fut := c.CallAsync(bg, refs[0], "echo", func(e *wire.Encoder) error { return args(0, e) })
		expect("CallAsync, before its Wait", 1)
		if err := fut.Err(bg); err != nil {
			t.Fatalf("call: %v", err)
		}
		if err := DeleteRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("delete: %v", err)
		}
		expect("DeleteRefs", 8, 8)
	})
}

// TestBurstIsAnsweredInOneWritePerMachine: the replies to a collective's
// requests leave each server as the requests left the client — in one write
// per machine, and at a window smaller than the collective in the shape of
// its bursts — and a request sent by itself is answered by itself.
func TestBurstIsAnsweredInOneWritePerMachine(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		c, tap := tappedCluster(t, tr)
		expect := func(what string, want ...int) {
			t.Helper()
			if got := tap.answered(); !slices.Equal(got, want) {
				t.Errorf("%s: answered in writes of %v replies, want %v", what, got, want)
			}
		}
		refs, err := SpawnRefs(bg, c, twoMachines(16), "test.Echo", nil, DefaultWindow)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		expect("SpawnRefs", 8, 8)
		args := func(_ int, e *wire.Encoder) error { e.PutBytes(make([]byte, 64)); return nil }
		if err := FanOut(bg, c, refs, "echo", args, nil, DefaultWindow); err != nil {
			t.Fatalf("fan-out: %v", err)
		}
		expect("FanOut", 8, 8)
		if err := BarrierRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("barrier: %v", err)
		}
		expect("BarrierRefs", 8, 8)
		if err := FanOut(bg, c, refs, "echo", args, nil, 4); err != nil {
			t.Fatalf("fan-out, window 4: %v", err)
		}
		expect("FanOut at window 4", 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
		if err := c.CallAsync(bg, refs[0], "echo", func(e *wire.Encoder) error { return args(0, e) }).Err(bg); err != nil {
			t.Fatalf("call: %v", err)
		}
		expect("CallAsync", 1)
		if err := DeleteRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("delete: %v", err)
		}
		expect("DeleteRefs", 8, 8)

		// A spawn whose caller can give up waits for a hung construction
		// only so long: no member's reply waits for another's.
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		if refs, err = SpawnRefs(ctx, c, twoMachines(4), "test.Echo", nil, DefaultWindow); err != nil {
			t.Fatalf("spawn: %v", err)
		}
		expect("SpawnRefs under a context that can end", 1, 1, 1, 1)
		if err := DeleteRefs(bg, c, refs, DefaultWindow); err != nil {
			t.Fatalf("delete: %v", err)
		}
	})
}

// TestGroupedRepliesKeepMemberTimeouts: a request with a deadline — its
// own, or its context's — joins no reply group, so a member that overruns
// it fails alone and its siblings on the same machine are answered without
// waiting for it.
func TestGroupedRepliesKeepMemberTimeouts(t *testing.T) {
	registerGate()
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		c, _ := tappedCluster(t, tr)
		gates, err := SpawnRefs(bg, c, []int{1, 1, 1, 1}, "test.Gate", nil, DefaultWindow)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		const parked = 2 // every gate but this one is open
		for i, g := range gates {
			if i != parked {
				if _, err := c.Call(bg, g, "release", nil); err != nil {
					t.Fatalf("release %d: %v", i, err)
				}
			}
		}
		const budget = 100 * time.Millisecond
		hold := func(how string, ctx context.Context, opts ...CallOption) {
			err := FanOut(ctx, c, gates, "hold", nil, nil, DefaultWindow, opts...)
			errs := joined(err)
			var me *MemberError
			if len(errs) != 1 || !errors.As(errs[0], &me) || me.Index != parked || !errors.Is(me, context.DeadlineExceeded) {
				t.Errorf("%s: fan-out returned %v, want member %d alone to have timed out", how, err, parked)
			}
		}
		hold("WithTimeout", bg, WithTimeout(budget))
		ctx, cancel := context.WithTimeout(bg, budget)
		defer cancel()
		hold("context deadline", ctx)
		if _, err := c.Call(bg, gates[parked], "release", nil); err != nil {
			t.Fatalf("release: %v", err)
		}
		if err := DeleteRefs(bg, c, gates, DefaultWindow); err != nil {
			t.Fatalf("delete: %v", err)
		}
	})
}

// TestGroupNeverSpansCollectives: two collectives issued on one connection
// at once, whose frames leave in one write — the first collective's two
// members, then the second's two. The first waits for a parked member; the
// second's replies do not wait with it.
func TestGroupNeverSpansCollectives(t *testing.T) {
	registerGate()
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		c, tap := tappedCluster(t, tr)
		gates, err := SpawnRefs(bg, c, []int{1, 1, 1, 1}, "test.Gate", nil, DefaultWindow)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		echoes, err := SpawnRefs(bg, c, []int{1, 1}, "test.Echo", nil, DefaultWindow)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		const parked = 1
		for i, g := range gates {
			if i != parked {
				if _, err := c.Call(bg, g, "release", nil); err != nil {
					t.Fatalf("release %d: %v", i, err)
				}
			}
		}
		tap.written()

		twoHeld, secondDone := make(chan struct{}), make(chan struct{})
		first := make(chan error, 1)
		go func() {
			first <- FanOut(bg, c, gates, "hold", func(i int, e *wire.Encoder) error {
				if i == 2 { // members 0 and 1 are held
					close(twoHeld)
					<-secondDone
				}
				return nil
			}, nil, DefaultWindow)
		}()
		<-twoHeld
		second := make(chan error, 1)
		go func() {
			second <- FanOut(bg, c, echoes, "echo", func(_ int, e *wire.Encoder) error { e.PutBytes(nil); return nil }, nil, DefaultWindow)
		}()
		select {
		case err := <-second:
			if err != nil {
				t.Errorf("second collective: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the second collective waits for the first's parked member")
		}
		if got := tap.written(); !slices.Equal(got, []int{4}) {
			t.Errorf("the two collectives left in writes of %v, want one of 4", got)
		}
		close(secondDone)
		select {
		case err := <-first:
			t.Fatalf("first collective returned (%v) with a member parked", err)
		case <-time.After(20 * time.Millisecond):
		}
		if _, err := c.Call(bg, gates[parked], "release", nil); err != nil {
			t.Fatalf("release: %v", err)
		}
		if err := <-first; err != nil {
			t.Errorf("first collective: %v", err)
		}
		if err := DeleteRefs(bg, c, append(gates, echoes...), DefaultWindow); err != nil {
			t.Fatalf("delete: %v", err)
		}
	})
}

// TestBurstKeepsIssueOrder: an object sees the calls of one client in the
// order they were issued, held or not — a synchronous Call made from inside
// the issue step (here: by a member's argument encoder) runs after the
// members issued before it and before those after, and so does a member
// too long to be held, which goes out with what was.
func TestBurstKeepsIssueOrder(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		c, tap := tappedCluster(t, tr)
		ref, err := c.New(bg, 1, "test.Journal", nil)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		const members = 8
		refs := make([]Ref, members) // one object, eight times: its order is the connection's
		for i := range refs {
			refs[i] = ref
		}
		tap.written()

		err = FanOut(bg, c, refs, "note", func(i int, e *wire.Encoder) error {
			if i == 3 {
				d, err := c.Call(bg, ref, "note", noteArgs(100, nil))
				d.Release()
				if err != nil {
					return err
				}
			}
			return noteArgs(i, nil)(e)
		}, nil, DefaultWindow)
		if err != nil {
			t.Fatalf("fan-out with a call inside: %v", err)
		}
		if got, want := tap.written(), []int{4, 5}; !slices.Equal(got, want) {
			// 0, 1, 2 and the call; then 3 to 7.
			t.Errorf("a call inside the burst: bursts of %v messages, want %v", got, want)
		}

		long := make([]byte, 20<<10) // longer than what one read of the far side takes
		err = FanOut(bg, c, refs, "note", func(i int, e *wire.Encoder) error {
			if i == 5 {
				return noteArgs(200+i, long)(e)
			}
			return noteArgs(200+i, nil)(e)
		}, nil, DefaultWindow)
		if err != nil {
			t.Fatalf("fan-out with a long member: %v", err)
		}
		if got, want := tap.written(), []int{6, 2}; !slices.Equal(got, want) {
			t.Errorf("a long member inside the burst: bursts of %v messages, want %v", got, want)
		}

		want := []int{0, 1, 2, 100, 3, 4, 5, 6, 7, 200, 201, 202, 203, 204, 205, 206, 207}
		if got := notesOf(t, c, ref); !slices.Equal(got, want) {
			t.Errorf("the object saw %v, want %v", got, want)
		}
	})
}

// TestFanOutSeveredBetweenHoldAndFlush: the connection dies while a burst
// is held on it — by the time the last member is issued, the frames of the
// others wait on a connection that can no longer send. Every member is
// answered once, with a MemberError wrapping a *MachineDownError; nothing
// stays registered, nothing stays held, and (TestMain) no goroutine.
func TestFanOutSeveredBetweenHoldAndFlush(t *testing.T) {
	for _, tc := range []struct {
		name string
		die  func(*burstTap)
	}{
		// The flush is what finds out: the reader still blocks.
		{"sends fail", func(tap *burstTap) { tap.sendsFail.Store(true) }},
		// Reader and flush race for it.
		{"closed", func(tap *burstTap) { tap.sever() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachTransport(t, func(t *testing.T, tr transport.Transport) {
				c, tap := tappedCluster(t, tr)
				const members = 16
				machines := twoMachines(members)
				refs, err := SpawnRefs(bg, c, machines, "test.Echo", nil, DefaultWindow)
				if err != nil {
					t.Fatalf("spawn: %v", err)
				}
				c.mu.Lock()
				conns := []*clientConn{c.conns[1], c.conns[2]}
				c.mu.Unlock()

				done := make(chan error, 1)
				go func() {
					done <- FanOut(bg, c, refs, "echo", func(i int, e *wire.Encoder) error {
						if i == members-1 {
							tc.die(tap)
						}
						e.PutBytes(nil)
						return nil
					}, nil, DefaultWindow)
				}()
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("the fan-out hangs: held requests were never answered")
				}

				answered := make([]int, members)
				for _, e := range joined(err) {
					var me *MemberError
					var down *MachineDownError
					if !errors.As(e, &me) || !errors.As(e, &down) || down.Machine != machines[me.Index] {
						t.Errorf("%v: want a MemberError wrapping the member's *MachineDownError", e)
						continue
					}
					answered[me.Index]++
				}
				for i, n := range answered {
					if n != 1 {
						t.Errorf("member %d answered %d times, want once", i, n)
					}
				}
				if n := c.InFlight(); n != 0 {
					t.Errorf("%d requests still registered", n)
				}
				for _, cc := range conns {
					cc.wmu.Lock()
					if cc.held.Last() != nil || len(cc.heldIDs) != 0 {
						t.Errorf("machine %d: %d requests still held", cc.machine, len(cc.heldIDs))
					}
					cc.wmu.Unlock()
				}
			})
		})
	}
}

// TestHeldRequestTimesOut: the per-call timer of a request fires while its
// frame is still held. The request is abandoned like one whose timer fired
// just after it was sent: it fails once, with the deadline, its frame
// leaves with the burst all the same, and the reply is an orphan.
func TestHeldRequestTimesOut(t *testing.T) {
	c, tap := tappedCluster(t, transport.TCP{})
	refs, err := SpawnRefs(bg, c, []int{1, 1, 1}, "test.Journal", nil, DefaultWindow)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	tap.written()
	before := metrics.Default.Snapshot()
	err = FanOut(bg, c, refs, "note", func(i int, e *wire.Encoder) error {
		if i == 1 {
			time.Sleep(150 * time.Millisecond) // member 0 is held, and times out
		}
		return noteArgs(i, nil)(e)
	}, nil, DefaultWindow, WithTimeout(50*time.Millisecond))
	var me *MemberError
	if !errors.As(err, &me) || me.Index != 0 || !errors.Is(me, context.DeadlineExceeded) {
		t.Fatalf("fan-out: %v, want member 0 to have timed out", err)
	}
	failed := 0
	for _, e := range joined(err) {
		if errors.As(e, &me) && me.Index == 0 {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("member 0 reported %d times, want once", failed)
	}
	// Its request left with the burst all the same (the server, which reads
	// the deadline in its header, may refuse to run it), and the reply had
	// nobody to go to.
	if got := tap.written(); !slices.Equal(got, []int{3}) {
		t.Errorf("bursts of %v messages, want one of all 3", got)
	}
	if got := notesOf(t, c, refs[0]); len(got) > 1 {
		t.Errorf("the abandoned request ran %d times: %v", len(got), got)
	}
	for deadline := time.Now().Add(5 * time.Second); metrics.Default.Snapshot().Sub(before).RespOrphaned == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reply to the abandoned request was not counted as an orphan")
		}
	}
	if n := c.InFlight(); n != 0 {
		t.Errorf("%d requests still registered", n)
	}
}

// TestBurstOfManyIsBounded: what is held never outgrows what the far side
// reads at once — a collective of many members leaves in several writes,
// in order, each of what fitted and the one member that no longer did.
func TestBurstOfManyIsBounded(t *testing.T) {
	c, tap := tappedCluster(t, transport.TCP{})
	ref, err := c.New(bg, 1, "test.Journal", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	const members = 40
	refs := make([]Ref, members)
	for i := range refs {
		refs[i] = ref
	}
	tap.written()
	pad := make([]byte, 1000)
	if err := FanOut(bg, c, refs, "note", func(i int, e *wire.Encoder) error { return noteArgs(i, pad)(e) }, nil, members); err != nil {
		t.Fatalf("fan-out: %v", err)
	}
	bursts := tap.written()
	sum := 0
	for _, n := range bursts {
		sum += n
		if n > 17 {
			t.Errorf("a burst of %d messages of over 1000 bytes", n)
		}
	}
	if sum != members || len(bursts) != 3 {
		t.Errorf("bursts of %v messages, want %d messages in 3 bursts", bursts, members)
	}
	want := make([]int, members)
	for i := range want {
		want[i] = i
	}
	if got := notesOf(t, c, ref); !slices.Equal(got, want) {
		t.Errorf("the object saw %v, want 0..%d in order", got, members-1)
	}
}
