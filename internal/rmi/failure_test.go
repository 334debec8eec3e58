package rmi

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// This file injects failures into the runtime: dead servers, garbage
// frames, races between deletion and invocation, connection loss with
// calls in flight. The invariant under test is uniform: errors are
// reported, nothing hangs, nothing panics.

func TestServerCloseFailsInflightCalls(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()

	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer releaseSlowpoke(t, srv, ref)()
	// A call that blocks inside the object...
	fut := c.CallAsync(bg, ref, "block", nil)
	time.Sleep(20 * time.Millisecond)
	// ...then the machine goes down.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()

	select {
	case err := <-fut.Done():
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server close")
	}
	if err := fut.Err(bg); err == nil {
		t.Fatal("in-flight call succeeded on a dead machine")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server close hung on a blocked object method")
	}
}

func TestCallsAfterServerClose(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()
	ref, err := c.New(bg, 0, "test.Counter", func(e *wire.Encoder) error {
		e.PutInt(0)
		return nil
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Close()
	if _, err := c.Call(bg, ref, "get", nil); err == nil {
		t.Fatal("call to closed machine succeeded")
	}
	if _, err := c.New(bg, 0, "test.Counter", func(e *wire.Encoder) error {
		e.PutInt(0)
		return nil
	}); err == nil {
		t.Fatal("construction on closed machine succeeded")
	}
}

// TestGarbageFramesDoNotKillServer feeds raw garbage into a server
// connection; the server must survive and keep serving well-formed
// requests.
func TestGarbageFramesDoNotKillServer(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()

	// Raw connection speaking nonsense.
	raw, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	garbage := [][]byte{
		{},
		{0xFF},
		{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		[]byte("hello, is this the object server?"),
		{0x05, 0x02, 0x00}, // plausible header, truncated body
	}
	for _, g := range garbage {
		if err := raw.Send(g); err != nil {
			t.Fatalf("send garbage: %v", err)
		}
	}
	// An unknown opcode with a valid reqID gets an error response rather
	// than silence. (Garbage frames whose headers happened to parse also
	// earn error replies, so scan for ours.)
	e := wire.NewEncoder(8)
	e.PutByte(byte(PrioNormal)) // priority header byte
	e.PutUvarint(42)            // reqID
	e.PutUvarint(200)           // bogus op
	if err := raw.Send(e.Bytes()); err != nil {
		t.Fatalf("send bogus op: %v", err)
	}
	found := false
	for tries := 0; tries < 10 && !found; tries++ {
		resp, err := raw.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		d := wire.NewDecoder(resp)
		reqID := d.Uvarint()
		status := d.Uvarint()
		if d.Err() != nil {
			t.Fatalf("unparseable response")
		}
		if status != statusErr {
			t.Fatalf("garbage earned a success response (reqID %d)", reqID)
		}
		if reqID == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("no error response for the bogus opcode")
	}
	raw.Close()

	// The server still works for a real client.
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()
	if err := c.Ping(bg, 0); err != nil {
		t.Fatalf("server dead after garbage: %v", err)
	}
}

// TestDeleteCallRace fires deletes and calls at one object concurrently;
// every operation must return (success or ErrNoSuchObject), never hang.
func TestDeleteCallRace(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()

	for round := 0; round < 20; round++ {
		ref, err := c.New(bg, 0, "test.Counter", func(e *wire.Encoder) error {
			e.PutInt(0)
			return nil
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		results := make(chan error, 8)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := c.Call(bg, ref, "get", nil)
				results <- err
			}(i)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			results <- c.Delete(bg, ref)
		}()
		go func() {
			defer wg.Done()
			results <- c.Delete(bg, ref)
		}()
		wg.Wait()
		close(results)
		var deleteOK int
		for err := range results {
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("round %d: unexpected error %v", round, err)
			}
		}
		_ = deleteOK
	}
}

// TestDestructorErrorPropagates delivers a destructor failure to the
// deleting client.
func TestDestructorErrorPropagates(t *testing.T) {
	registerBadDestructor()
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()
	ref, err := c.New(bg, 0, "test.BadDestructor", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = c.Delete(bg, ref)
	if err == nil {
		t.Fatal("destructor error swallowed")
	}
}

type badDestructor struct{}

// Classes a test body used to register are registered once a process: the
// registry refuses a second time, and -count=2 runs the test twice.
var registerBadDestructor = sync.OnceFunc(func() {
	Register("test.BadDestructor", func(env *Env, args *wire.Decoder) (any, error) {
		return &badDestructor{}, nil
	})
})

func (b *badDestructor) OnDestroy(env *Env) error {
	return errors.New("refusing to die")
}

// TestManyPendingFuturesOnClose verifies every outstanding future is
// failed when the client closes.
func TestManyPendingFuturesOnClose(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer releaseSlowpoke(t, srv, ref)()
	// One call occupies the object; the rest queue in its mailbox.
	futs := make([]*Future, 16)
	futs[0] = c.CallAsync(bg, ref, "block", nil)
	for i := 1; i < len(futs); i++ {
		futs[i] = c.CallAsync(bg, ref, "sleep", func(e *wire.Encoder) error {
			e.PutInt(1)
			return nil
		})
	}
	time.Sleep(20 * time.Millisecond)
	c.Close()
	for i, f := range futs {
		select {
		case <-f.Done():
			if f.Err(bg) == nil {
				t.Fatalf("future %d succeeded after client close", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d hung after client close", i)
		}
	}
}

// TestPutBackRestoresService verifies the passivation-rollback primitive:
// after TakeObject + PutBack under the same id, existing refs keep
// working.
func TestPutBackRestoresService(t *testing.T) {
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()

	ref, err := srv.AddObject("test.Counter", &counter{n: 7})
	if err != nil {
		t.Fatalf("AddObject: %v", err)
	}
	obj, err := srv.TakeObject(ref.Object)
	if err != nil {
		t.Fatalf("TakeObject: %v", err)
	}
	// While taken, calls fail.
	if _, err := c.Call(bg, ref, "get", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("call while taken: %v", err)
	}
	if err := srv.PutBack(ref.Object, ref.Class, obj); err != nil {
		t.Fatalf("PutBack: %v", err)
	}
	d, err := c.Call(bg, ref, "get", nil)
	if err != nil {
		t.Fatalf("call after PutBack: %v", err)
	}
	if got := d.Varint(); got != 7 {
		t.Fatalf("state lost across take/putback: %d", got)
	}
	// Double PutBack must fail.
	if err := srv.PutBack(ref.Object, ref.Class, obj); err == nil {
		t.Fatal("double PutBack accepted")
	}
	// PutBack with unknown class must fail.
	if err := srv.PutBack(9999, "no.such.class", obj); !errors.Is(err, ErrNoSuchClass) {
		t.Fatalf("PutBack unknown class: %v", err)
	}
}

// TestTCPConnectionDropMidCall kills the raw TCP connection under a
// client with calls pending.
func TestTCPConnectionDropMidCall(t *testing.T) {
	tr := transport.TCP{}
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	defer c.Close()
	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer releaseSlowpoke(t, srv, ref)()
	fut := c.CallAsync(bg, ref, "block", nil)
	time.Sleep(20 * time.Millisecond)
	srv.Close() // tears down the TCP connection server-side
	select {
	case <-fut.Done():
		if fut.Err(bg) == nil {
			t.Fatal("call succeeded across dropped connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("future hung after connection drop")
	}
}

// halfDeadTransport dials connections whose Send starts failing the moment
// dead is set while their Recv keeps blocking — a peer that has died and
// whose death the reader has not seen yet, held still.
type halfDeadTransport struct {
	transport.Transport
	dead atomic.Bool
}

type halfDeadConn struct {
	transport.Conn
	dead *atomic.Bool
}

func (tr *halfDeadTransport) Dial(addr string) (transport.Conn, error) {
	conn, err := tr.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &halfDeadConn{Conn: conn, dead: &tr.dead}, nil
}

func (c *halfDeadConn) Send(msg []byte) error {
	if c.dead.Load() {
		return transport.ErrClosed
	}
	return c.Conn.Send(msg)
}

func (c *halfDeadConn) SendBurst(frames []transport.Frame) error {
	if c.dead.Load() {
		for _, f := range frames {
			transport.ReleaseFrame(f.Head)
		}
		return transport.ErrClosed
	}
	return c.Conn.SendBurst(frames)
}

// TestSendToDeadPeerIsTypedMachineDown: a call that reaches a connection
// whose peer is gone before the receive loop has evicted it fails with the
// typed machine-down error on both call paths — not with whatever the
// transport said — and a closed client still says it is closed.
func TestSendToDeadPeerIsTypedMachineDown(t *testing.T) {
	tr := &halfDeadTransport{Transport: transport.NewInproc(transport.LinkModel{})}
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	tr.dead.Store(true)
	eachForm(t, bg, c, ref, "nop", nil, nil, func(path string, err error) {
		var down *MachineDownError
		if !errors.Is(err, ErrMachineDown) || !errors.As(err, &down) || down.Machine != 0 {
			t.Errorf("%s on a dead peer's connection: %v, want a *MachineDownError for machine 0", path, err)
		}
		if !errors.Is(err, transport.ErrClosed) {
			t.Errorf("%s: %v does not carry the transport's cause", path, err)
		}
	})

	c.Close()
	if _, err := c.Call(bg, ref, "nop", nil); !errors.Is(err, ErrClientClosed) {
		t.Errorf("call on a closed client: %v, want ErrClientClosed", err)
	}
}

// countingTransport counts the dials made through it.
type countingTransport struct {
	transport.Transport
	dials atomic.Int64
}

func (tr *countingTransport) Dial(addr string) (transport.Conn, error) {
	tr.dials.Add(1)
	return tr.Transport.Dial(addr)
}

// TestFailingEncoderNeverDials pins the order of the one request path —
// encode, then dial — where it shows: an argument encoder that fails
// reports its own error, from New and from both forms of a call, and the
// machine, which is not there, is never dialed.
func TestFailingEncoderNeverDials(t *testing.T) {
	tr := &countingTransport{Transport: transport.NewInproc(transport.LinkModel{})}
	c := NewClient(tr, StaticDirectory{"nowhere"})
	defer c.Close()
	errEncode := errors.New("cannot encode this")
	bad := func(*wire.Encoder) error { return errEncode }

	if _, err := c.New(bg, 0, "test.Counter", bad); !errors.Is(err, errEncode) {
		t.Errorf("New: %v, want the encoder's error", err)
	}
	eachForm(t, bg, c, Ref{Machine: 0, Object: 1, Class: "test.Counter"}, "add", bad, nil, func(form string, err error) {
		if !errors.Is(err, errEncode) {
			t.Errorf("%s: %v, want the encoder's error", form, err)
		}
	})
	if n := tr.dials.Load(); n != 0 {
		t.Errorf("%d dials for requests that were never encoded", n)
	}
	// The same calls with arguments that encode do dial, and say so.
	eachForm(t, bg, c, Ref{Machine: 0, Object: 1, Class: "test.Counter"}, "get", nil, nil, func(form string, err error) {
		if !errors.Is(err, ErrMachineDown) {
			t.Errorf("%s to an unreachable machine: %v, want ErrMachineDown", form, err)
		}
	})
	if n := tr.dials.Load(); n != 2 {
		t.Errorf("%d dials for two calls that were encoded, want 2", n)
	}
}
