package rmi

import (
	"context"
	"encoding/hex"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// tapConn is a transport.Conn under a test's hand: what is sent on it
// comes out of sent, and Recv announces itself on asked, hands out the next
// frame put in feed, and fails once the connection is closed.
type tapConn struct {
	sent   chan []byte
	feed   chan []byte
	asked  chan struct{}
	closed chan struct{}
	once   sync.Once
}

func newTapConn() *tapConn {
	return &tapConn{
		sent:   make(chan []byte, 64), // more than any test here sends unread
		feed:   make(chan []byte),
		asked:  make(chan struct{}),
		closed: make(chan struct{}),
	}
}

func (c *tapConn) Send(msg []byte) error {
	select {
	case c.sent <- msg:
		return nil
	case <-c.closed:
		return transport.ErrClosed
	}
}

func (c *tapConn) SendBurst(frames []transport.Frame) error {
	for _, f := range frames {
		// The tail is only lent until SendBurst returns: what comes out of
		// sent is a copy of the whole message, in the head's place.
		if err := c.Send(append(f.Head, f.Tail...)); err != nil {
			return err
		}
	}
	return nil
}

func (c *tapConn) Recv() ([]byte, error) {
	select {
	case c.asked <- struct{}{}:
	case <-c.closed:
		return nil, transport.ErrClosed
	}
	select {
	case frame := <-c.feed:
		return frame, nil
	case <-c.closed:
		return nil, transport.ErrClosed
	}
}

func (c *tapConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// tappedClient is a client whose connection to machine 0 is a tapConn.
func tappedClient() (*Client, *clientConn, *tapConn) {
	c := NewClient(transport.NewInproc(transport.LinkModel{}), StaticDirectory{""})
	tap := newTapConn()
	cc := newClientConn(tap, c, 0)
	c.mu.Lock()
	c.conns[0] = cc
	c.publishConns()
	c.mu.Unlock()
	return c, cc, tap
}

// fuzzServer is a server that holds one test.Echo object, id 1, and no
// connection but the tap its replies go to.
func fuzzServer(t testing.TB, newEcho []byte) (*Server, *tapConn) {
	srv, err := NewServer(0, transport.NewInproc(transport.LinkModel{}), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	tap := newTapConn()
	srv.dispatch(&connReader{Conn: tap}, slices.Clone(newEcho), nil)
	reply := wire.NewDecoder(awaitReply(t, tap))
	if reply.Uvarint(); reply.Uvarint() != statusOK || reply.Uvarint() != 1 {
		t.Fatalf("test.Echo not constructed as object 1")
	}
	return srv, tap
}

func awaitReply(t testing.TB, tap *tapConn) []byte {
	t.Helper()
	select {
	case frame := <-tap.sent:
		return frame
	case <-time.After(10 * time.Second):
		t.Fatal("no reply")
		return nil
	}
}

// maskTraceIDs returns frame with the trace and span id of its trace
// header, if it has one, replaced by a zero byte each.
func maskTraceIDs(frame []byte) []byte {
	d := wire.NewDecoder(frame)
	lead := d.Byte()
	d.Uvarint() // request id
	d.Uvarint() // opcode
	if lead&leadTraceFlag == 0 {
		return frame
	}
	head := len(frame) - d.Remaining()
	d.Uvarint()
	d.Uvarint()
	return slices.Concat(frame[:head], []byte{0, 0}, frame[len(frame)-d.Remaining():])
}

// FuzzFrameHeader is the fuzz target of the two decoders that read rmi
// frame headers off a socket. The bytes go to the server's dispatch as a
// request frame: it does not panic, a frame whose lead byte, request id or
// opcode cannot be read is dropped unanswered, and any other — whatever is
// wrong with the rest of it — is answered exactly once, under its own
// request id. And they go to a client connection's receive loop as a
// response frame while one call is pending: it does not panic, a frame
// whose request id or status cannot be read (truncated, or a varint longer
// than ten bytes) or names another request consumes no waiter, and one for
// the pending request settles it with what follows the header — whoever
// reads it, the receive loop or a caller reading its own reply, hands it
// to the one delivery function there is. The seeds are frames a client and
// a server really sent.
func FuzzFrameHeader(f *testing.F) {
	// Real request frames: every operation, with and without a trace
	// header, a deadline, a priority. The first one constructs the
	// test.Echo object the others address.
	c, _, tap := tappedClient()
	echo := Ref{Machine: 0, Object: 1, Class: "test.Echo"}
	payload := func(e *wire.Encoder) error { e.PutBytes([]byte("payload")); return nil }
	// A deadline whose bytes on the wire do not depend on the clock.
	by2096, cancel := context.WithDeadline(bg, time.Unix(4_000_000_000, 0))
	defer cancel()
	c.NewAsync(bg, 0, "test.Echo", nil)
	c.CallAsync(bg, echo, "echo", payload)
	c.CallAsync(by2096, echo, "machine", nil, WithSampled(), WithPriority(PrioBulk))
	c.CallAsync(bg, echo, "nope", nil)
	c.CallAsync(bg, Ref{Machine: 0, Object: 99, Class: "test.Echo"}, methodPing, nil)
	c.NewAsync(bg, 0, "test.Echo", nil, WithSampled())
	for _, op := range []uint64{opPing, opStat, opDebug, 77} {
		c.control(bg, 0, op, nil)
	}
	c.deleteAsync(bg, echo, callOptions{})
	var requests [][]byte
	for len(tap.sent) > 0 {
		requests = append(requests, <-tap.sent)
	}
	c.Close()
	// The synchronous Call, issued where nothing else is in flight, on a
	// connection of its own that numbers on from the first: its caller
	// reads the reply itself, and the client's Close releases it.
	c, _, tap = tappedClient()
	c.nextID.Store(uint64(len(requests)))
	called := make(chan error)
	go func() {
		d, err := c.Call(bg, echo, "echo", payload)
		d.Release()
		called <- err
	}()
	requests = append(requests, awaitReply(f, tap))
	<-tap.asked // the caller is reading
	c.Close()
	if err := <-called; !errors.Is(err, ErrClientClosed) {
		f.Fatalf("a caller reading its own reply, released by Close: %v, want ErrClientClosed", err)
	}
	// The wire format is these bytes: what the client of PR 21 wrote for
	// the same operations, trace and span id masked to one zero byte each.
	for i, want := range []string{
		"01010109746573742e4563686f",                       // new
		"01020201046563686f00077061796c6f6164",             // call with arguments
		"82030200000101076d616368696e65808080d9d3b3ed826f", // call: bulk, sampled, deadline
		"01040201046e6f706500",                             // call, no arguments
		"01050263055f70696e6700",                           // call _ping of object 99
		"81060100000109746573742e4563686f",                 // new, sampled
		"000704", "000805", "000906", "000a4d",             // ping, stat, debug, opcode 77
		"000b0301",                             // delete
		"210c0201046563686f00077061796c6f6164", // Call: the frame of CallAsync, marked waited
	} {
		if got := hex.EncodeToString(maskTraceIDs(requests[i])); got != want {
			f.Fatalf("request %d on the wire is %s, want %s", i, got, want)
		}
	}
	newEcho := requests[0]
	// Real response frames: what a server answers each of them.
	srv, replies := fuzzServer(f, newEcho)
	for _, req := range requests[1:] {
		srv.dispatch(&connReader{Conn: replies}, slices.Clone(req), nil)
		f.Add(req)
		f.Add(awaitReply(f, replies))
	}
	srv.Close()
	// The two calls with arguments, untraced and traced, under each
	// priority and marked as one of a reply group, as waited, and as both:
	// a mark changes no class.
	for p := range Priority(NumPriorities) {
		for _, req := range requests[1:3] {
			for _, mark := range []byte{leadGroupFlag, leadWaitedFlag, leadGroupFlag | leadWaitedFlag} {
				marked := slices.Clone(req)
				marked[0] = marked[0]&leadTraceFlag | byte(p) | mark
				f.Add(marked)
			}
		}
	}
	// Headers that end early, and a request id of eleven bytes — as a
	// request, then as a response.
	f.Add(newEcho[:2])
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x04})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		// As a request.
		hdr := wire.NewDecoder(frame)
		lead, reqID, op := hdr.Byte(), hdr.Uvarint(), hdr.Uvarint()
		readable := hdr.Err() == nil
		if readable && op == opNew {
			// A constructor is user code and may block for as long as its
			// arguments say; only test.Echo's is known not to.
			decodeTraceHeader(lead, hdr)
			if class := hdr.String(); hdr.Err() == nil && class != "test.Echo" {
				t.Skip("constructs a", class)
			}
		}
		if got, want := clampPriority(lead), clampPriority(lead&^(leadGroupFlag|leadWaitedFlag)); got != want {
			t.Fatalf("lead byte %#x is class %v, the same byte unmarked %v", lead, got, want)
		}
		srv, replies := fuzzServer(t, newEcho)
		// A marked frame opens a reply group; the connection's end closes it.
		srv.dispatch(&connReader{Conn: replies}, slices.Clone(frame), nil).close()
		if readable {
			reply := wire.NewDecoder(awaitReply(t, replies))
			if got := reply.Uvarint(); got != reqID || reply.Err() != nil {
				t.Fatalf("request %d answered as %d (%v)", reqID, got, reply.Err())
			}
		}
		srv.Close()
		if len(replies.sent) != 0 {
			t.Fatalf("a request frame (header readable: %v) drew %d replies too many", readable, len(replies.sent))
		}

		// As a response, with call number 1 pending.
		c, cc, _ := tappedClient()
		defer c.Close()
		fut := c.CallAsync(bg, echo, "echo", nil)
		cc.deliver(slices.Clone(frame))
		hdr = wire.NewDecoder(frame)
		reqID, status := hdr.Uvarint(), hdr.Uvarint()
		settled := false
		select {
		case <-fut.Done():
			settled = true
		default:
		}
		if want := hdr.Err() == nil && reqID == 1; settled != want {
			t.Fatalf("response header (id %d, status %d, err %v): waiter consumed %v, want %v", reqID, status, hdr.Err(), settled, want)
		}
		if !settled {
			return
		}
		d, err := fut.Wait(bg)
		defer fut.Release()
		var remote *RemoteError
		switch {
		case status != statusOK && !errors.As(err, &remote):
			t.Fatalf("response of status %d settled the call with %v, want a RemoteError", status, err)
		case status == statusOK && err != nil:
			t.Fatalf("ok response settled the call with %v", err)
		case status == statusOK && d.Remaining() != hdr.Remaining():
			t.Fatalf("ok response: %d bytes of result, want %d", d.Remaining(), hdr.Remaining())
		}
	})
}
