package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

	"oopp/internal/bufpool"
)

// TCP is a Transport over real TCP sockets with 4-byte length framing.
// It carries the same frames as Inproc, so a cluster can move from
// one-process simulation to one-process-per-machine deployment
// (cmd/oppcluster) without touching any code above the transport.
type TCP struct{}

// Name implements Transport.
func (TCP) Name() string { return "tcp" }

// Listen binds a TCP listener. Use "127.0.0.1:0" for an ephemeral port.
func (TCP) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl}, nil
}

// Dial connects to a TCP listener.
func (TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		// RMI traffic is dominated by small request/response frames;
		// Nagle's algorithm would add 40ms stalls to exactly the paths
		// the latency experiments measure.
		_ = tc.SetNoDelay(true)
	}
	return newTCPConn(nc), nil
}

type tcpListener struct {
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return newTCPConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }

func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// frameHeader is the length prefix of a frame on the wire.
const frameHeader = 4

// readAhead is how many bytes of a socket's stream one connection keeps
// in user space on each side: Recv reads the socket into a buffer of this
// size and cuts frames out of it, and SendBurst joins headers and short
// messages in one of the same size, so a burst that fits crosses the kernel
// once each way. Burst.Add's room is the same number seen by a sender
// that holds messages back for such a burst.
const readAhead = 16 << 10

type tcpConn struct {
	nc     net.Conn
	sendMu sync.Mutex
	recvMu sync.Mutex

	// Send side, guarded by sendMu. wbuf is where a burst's length headers
	// and its short messages are joined for one write; a message longer
	// than the room left goes to the kernel from where it lies, its head
	// and then its borrowed tail behind what is joined, in one vectored
	// write (iov, rebuilt from iovArr each time — WriteTo consumes the
	// slice; a field rather than a local so &iov escaping into the netpoll
	// internals does not allocate per send).
	wbuf   [readAhead]byte
	iov    net.Buffers
	iovArr [3][]byte

	// Receive side, guarded by recvMu. rbuf[rpos:rend] is what has been
	// read off the socket and not yet delivered. recvErr is the first
	// error Recv returned: the stream may stand anywhere inside a frame
	// then, so it is the answer from there on.
	rbuf       [readAhead]byte
	rpos, rend int
	recvErr    error

	// raw is the socket under nc, for peerClosed (nil if nc has none),
	// and peek the look it takes there, made at the first look so that a
	// look allocates nothing; peekEOF is what the last look saw. Guarded
	// by recvMu.
	raw     syscall.RawConn
	peek    func(fd uintptr) bool
	peekEOF bool
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{nc: nc}
}

func (c *tcpConn) Send(msg []byte) error {
	one := [1]Frame{{Head: msg}}
	return c.SendBurst(one[:])
}

func (c *tcpConn) SendBurst(frames []Frame) error {
	c.sendMu.Lock()
	err := c.writeBurst(frames)
	c.sendMu.Unlock()
	// The burst owns its heads either way; recycle them once the write is
	// done. The tails were only lent, and the write is over.
	for _, f := range frames {
		bufpool.Put(f.Head)
	}
	return err
}

// writeBurst writes frames as length-prefixed messages, in order, under
// sendMu: no other sender's bytes come between them. Headers and the
// messages that fit are joined in wbuf and leave in one write — a burst
// of small frames is one syscall and, TCP_NODELAY or not, one segment; a
// message that does not fit is never copied: its head and its tail are
// written from where they lie. Every byte of a tail is written when it
// returns. It does not release the heads. Nothing is written if any frame
// is too large.
func (c *tcpConn) writeBurst(frames []Frame) error {
	for _, f := range frames {
		if n := f.Len(); n > maxFrame {
			return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
		}
	}
	w := c.wbuf[:0]
	for _, f := range frames {
		n := f.Len()
		if room := cap(w) - len(w) - frameHeader; room < 0 || (n > room && frameHeader+n <= cap(w)) {
			// No room for its header, or none for it where an empty buffer
			// would have some: what is joined goes first.
			if _, err := c.nc.Write(w); err != nil {
				return translateNetErr(err)
			}
			w = w[:0]
		}
		w = binary.BigEndian.AppendUint32(w, uint32(n))
		if n <= cap(w)-len(w) {
			w = append(w, f.Head...)
			w = append(w, f.Tail...)
			continue
		}
		c.iov = append(net.Buffers(c.iovArr[:0]), w, f.Head, f.Tail)
		if _, err := c.iov.WriteTo(c.nc); err != nil {
			return translateNetErr(err)
		}
		w = w[:0]
	}
	if len(w) == 0 {
		return nil
	}
	_, err := c.nc.Write(w)
	return translateNetErr(err)
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.recvErr != nil {
		return nil, c.recvErr
	}
	msg, err := c.readFrame()
	c.recvErr = err
	return msg, err
}

// readFrame cuts the next frame out of the read-ahead buffer, reading the
// socket only when the buffer holds less than the frame: a frame wholly
// buffered costs no syscall, and since the socket is asked only for what
// the buffer lacks, every whole frame already read is delivered before a
// close is reported.
func (c *tcpConn) readFrame() ([]byte, error) {
	for c.rend-c.rpos < frameHeader {
		// Fewer than four bytes are left, so moving them to the front is
		// cheap and the read that follows has the whole buffer to fill.
		c.rend = copy(c.rbuf[:], c.rbuf[c.rpos:c.rend])
		c.rpos = 0
		n, err := c.nc.Read(c.rbuf[c.rend:])
		c.rend += n
		if err != nil && c.rend < frameHeader {
			return nil, translateNetErr(err)
		}
	}
	n := binary.BigEndian.Uint32(c.rbuf[c.rpos:])
	c.rpos += frameHeader
	if n > maxFrame {
		return nil, fmt.Errorf("transport: oversized frame (%d bytes)", n)
	}
	// Frames come from the shared pool; the caller owns the result and
	// recycles it with ReleaseFrame after decoding.
	msg := bufpool.GetLen(int(n))
	have := copy(msg, c.rbuf[c.rpos:c.rend])
	c.rpos += have
	if have < len(msg) {
		// Longer than what is buffered: the rest goes from the socket
		// straight into the frame, so a page is copied twice only for the
		// prefix that came with its header.
		if _, err := io.ReadFull(c.nc, msg[have:]); err != nil {
			bufpool.Put(msg)
			return nil, translateNetErr(err)
		}
	}
	return msg, nil
}

func (c *tcpConn) Close() error { return c.nc.Close() }

func translateNetErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}
