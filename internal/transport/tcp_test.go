package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TCP edge-path coverage: peer restarts, torn frames from a dying peer,
// and the Send-owns-the-buffer contract under concurrent Close. These
// are the wire conditions the cluster runtime's reconnect/heartbeat
// layers are built on, so the transport's behavior under them is pinned
// here independently of rmi.

// TestTCPReconnectAfterPeerRestart: a connection dies with the peer, and
// a fresh Dial to the rebound address works — the transport property
// under the client's automatic reconnect.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	tr := TCP{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c1, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	srv := <-accepted
	if err := c1.Send(GetFrame(8)); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}

	// Peer goes down: server conn and listener close.
	srv.Close()
	l.Close()
	if _, err := c1.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after peer death: %v, want ErrClosed", err)
	}
	if _, err := tr.Dial(addr); err == nil {
		t.Fatal("dial of dead address succeeded")
	}

	// Peer restarts on the same address; a fresh dial round-trips.
	l2, err := tr.Listen(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	go func() {
		c, err := l2.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	}()
	c2, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer c2.Close()
	msg := GetFrame(4)
	copy(msg, "ping")
	if err := c2.Send(msg); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	got, err := c2.Recv()
	if err != nil || string(got) != "ping" {
		t.Fatalf("echo after restart = %q, %v", got, err)
	}
	ReleaseFrame(got)
	c1.Close()
}

// rawPeer runs fn against the raw net.Conn accepted from one transport
// dial, for injecting torn wire data.
func rawPeer(t *testing.T, fn func(nc net.Conn)) Conn {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("raw listen: %v", err)
	}
	t.Cleanup(func() { nl.Close() })
	go func() {
		nc, err := nl.Accept()
		if err != nil {
			return
		}
		fn(nc)
	}()
	c, err := TCP{}.Dial(nl.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestTCPShortReadMidPayload: the peer dies after sending a frame header
// and part of the payload. Recv must fail with ErrClosed, not hang or
// return a torn frame.
func TestTCPShortReadMidPayload(t *testing.T) {
	c := rawPeer(t, func(nc net.Conn) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 10)
		nc.Write(hdr[:])
		nc.Write([]byte("four")) // 4 of the promised 10 bytes
		nc.Close()
	})
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv of torn payload: %v, want ErrClosed", err)
	}
}

// TestTCPShortReadMidHeader: death inside the 4-byte length prefix.
func TestTCPShortReadMidHeader(t *testing.T) {
	c := rawPeer(t, func(nc net.Conn) {
		nc.Write([]byte{0, 0}) // half a header
		nc.Close()
	})
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv of torn header: %v, want ErrClosed", err)
	}
}

// TestTCPRecvRejectsOversizedHeader: a peer advertising a frame beyond
// maxFrame is a protocol error surfaced before any allocation.
func TestTCPRecvRejectsOversizedHeader(t *testing.T) {
	c := rawPeer(t, func(nc net.Conn) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		nc.Write(hdr[:])
	})
	err := func() error {
		type result struct{ err error }
		done := make(chan result, 1)
		go func() {
			_, err := c.Recv()
			done <- result{err}
		}()
		select {
		case r := <-done:
			return r.err
		case <-time.After(5 * time.Second):
			return errors.New("recv hung")
		}
	}()
	if err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("recv of oversized header: %v, want a protocol error", err)
	}
}

// TestTCPConcurrentCloseVsSend hammers the ownership contract: many
// senders handing pooled frames to Send while the connection closes
// underneath them. Every Send must return (nil or an error) without
// panicking, and every frame is owned by the transport afterwards —
// run under -race this doubles as the use-after-transfer check.
func TestTCPConcurrentCloseVsSend(t *testing.T) {
	tr := TCP{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		// Drain until the wire dies so senders see backpressure, not RST
		// storms, while the race runs.
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			ReleaseFrame(m)
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	const senders = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				frame := GetFrame(128)
				if i := j % 2; i == 0 {
					if err := c.Send(frame); err != nil {
						return // closed underneath us: expected
					}
				} else {
					second := GetFrame(64)
					if err := c.SendBurst([]Frame{{Head: frame}, {Head: second}}); err != nil {
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(2 * time.Millisecond)
		c.Close()
	}()
	close(start)
	wg.Wait()
	// Post-close sends fail cleanly.
	if err := c.Send(GetFrame(16)); err == nil {
		t.Fatal("send on closed conn succeeded")
	}
}

// TestTCPRecvErrorIsFinal: a refused header leaves the stream standing
// inside a frame, so the valid frame behind it must not be parsed from
// wherever that is — every later Recv returns the first one's error.
func TestTCPRecvErrorIsFinal(t *testing.T) {
	c := rawPeer(t, func(nc net.Conn) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		nc.Write(hdr[:])
		nc.Write([]byte{0, 0, 0, 2, 'o', 'k'})
	})
	_, first := c.Recv()
	if first == nil || errors.Is(first, ErrClosed) {
		t.Fatalf("recv of oversized header: %v, want a protocol error", first)
	}
	for i := 0; i < 3; i++ {
		if msg, err := c.Recv(); err != first {
			t.Fatalf("recv %d after the refusal: %q, %v; want the same error again", i, msg, err)
		}
	}
}

// countingConn counts the calls that reach the socket.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestTCPBurstCrossesTheKernelOnce holds the two counts the read-ahead
// buffer and the burst send exist for: small frames that arrived together
// are cut out of one read, and a burst of small frames is one write. Over
// a pipe, where a Read takes what one Write brought and nothing else.
func TestTCPBurstCrossesTheKernelOnce(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	recv, send := &countingConn{Conn: b}, &countingConn{Conn: a}
	c, s := newTCPConn(recv), newTCPConn(send)
	defer c.Close()

	const n = 64
	var wire []byte
	for i := 0; i < n; i++ {
		wire = binary.BigEndian.AppendUint32(wire, 64)
		wire = append(wire, bytes.Repeat([]byte{byte(i)}, 64)...)
	}
	go a.Write(wire)
	for i := 0; i < n; i++ {
		msg, err := c.Recv()
		if err != nil || len(msg) != 64 || msg[0] != byte(i) || msg[63] != byte(i) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(msg), err)
		}
		ReleaseFrame(msg)
	}
	if got := recv.reads.Load(); got > 2 {
		t.Errorf("%d frames written in one piece took %d reads, want at most 2", n, got)
	}

	burst := make([]Frame, 8)
	for i := range burst {
		burst[i].Head = GetFrame(64)
		for j := range burst[i].Head {
			burst[i].Head[j] = byte(i)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- s.SendBurst(burst) }()
	for i := range burst {
		msg, err := c.Recv()
		if err != nil || len(msg) != 64 || msg[0] != byte(i) {
			t.Fatalf("burst frame %d: %d bytes, %v", i, len(msg), err)
		}
		ReleaseFrame(msg)
	}
	if err := <-sent; err != nil {
		t.Fatalf("burst: %v", err)
	}
	if got := send.writes.Load(); got != 1 {
		t.Errorf("a burst of %d small frames took %d writes, want 1", len(burst), got)
	}
}

// FuzzTCPRecvChunking: however the stream is cut into reads — inside a
// header, one byte at a time, across the end of the read-ahead buffer —
// Recv yields the frames that were written, bitwise, and then ErrClosed.
// cuts is read as a sequence of chunk lengths (a zero byte means 256);
// when it runs out the rest is written in one piece. To fuzz, pass
// -fuzzminimizetime 1s: the writing goroutine makes coverage vary from run
// to run, and the minimizer spends its default minute on each such input.
func FuzzTCPRecvChunking(f *testing.F) {
	f.Add([]byte{})                              // one write
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})  // the first headers byte by byte
	f.Add([]byte{2, 2, 3, 70, 0, 0, 0, 0})       // inside a header, then in 256s
	f.Add(bytes.Repeat([]byte{1}, 300))          // one byte at a time, far in
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 77}) // on the boundaries
	f.Add(bytes.Repeat([]byte{0}, 200))          // 256s through the long frames
	f.Add(bytes.Repeat([]byte{255, 3}, 100))     // uneven, always inside something
	f.Fuzz(func(t *testing.T, cuts []byte) {
		// Empty, 1 B, 64 B, one longer than the read-ahead buffer, and one
		// that ends exactly on the buffer's boundary as seen from the start
		// of the stream it opens; small ones behind each.
		sizes := []int{0, 1, 64, readAhead + 100, 64, 1, 0}
		var wire []byte
		var frames [][]byte
		add := func(n int) {
			m := make([]byte, n)
			for j := range m {
				m[j] = byte(len(frames)*131 + j)
			}
			frames = append(frames, m)
			wire = binary.BigEndian.AppendUint32(wire, uint32(n))
			wire = append(wire, m...)
		}
		for _, n := range sizes {
			add(n)
		}
		add(2*readAhead - len(wire)%readAhead - frameHeader) // ends where a buffer-length does
		add(64)
		add(readAhead - frameHeader) // header and body fill the buffer exactly
		add(3)

		// A pipe, not a socket: a Read takes from one Write only, so the
		// reads are cut exactly where the writes are, and fuzzing does not
		// wear out the loopback's ports.
		peer, nc := net.Pipe()
		c := newTCPConn(nc)
		defer c.Close()
		go func() {
			defer peer.Close()
			rest := wire
			for _, k := range cuts {
				n := int(k)
				if n == 0 {
					n = 256
				}
				if n >= len(rest) {
					break
				}
				if _, err := peer.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
			peer.Write(rest)
		}()
		for i, want := range frames {
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(frames), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: got %d bytes, want %d; differ", i, len(got), len(want))
			}
			ReleaseFrame(got)
		}
		for i := 0; i < 2; i++ {
			if msg, err := c.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("after the last frame: %d bytes, %v; want ErrClosed", len(msg), err)
			}
		}
	})
}
