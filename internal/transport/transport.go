// Package transport provides the byte-level message transports the OOPP
// runtime runs over. A transport moves opaque framed messages between a
// client and the server process of a remote object.
//
// Two implementations are provided:
//
//   - "inproc": machines live inside one OS process and exchange messages
//     over channels. An optional LinkModel imposes per-message latency and
//     bandwidth costs so that communication-dependent experiments (element
//     access vs bulk transfer, move-data vs move-compute, transpose cost)
//     have realistic, deterministic shape on a single host.
//   - "tcp": real sockets on localhost (or a network), with
//     length-prefixed framing. Used by integration tests and by
//     cmd/oppcluster, which runs one machine per OS process.
//
// Both satisfy the same interfaces, so every layer above — RMI runtime,
// page devices, distributed arrays, parallel FFT — is transport-agnostic.
//
// # Bursts
//
// A program of objects that call each other sends its small messages in
// bursts — a collective's issue loop, the replies to one — and both ends
// of a connection are built so that a burst crosses the kernel once each
// way, not once a message:
//
//   - SendBurst transmits many whole messages, in order, with no other
//     sender's message between them. Each is a Frame: a head and,
//     optionally, a tail the sender lends — a page write's values, sent
//     from where the caller packed them. On tcp their headers and bodies are
//     joined in a per-connection buffer and leave in one write (a message
//     longer than the buffer is never copied: it follows what is joined in
//     the same vectored write, its tail from where it lies). On inproc each
//     message is handed over and charged to the LinkModel as by a Send of
//     its own, so message counts and modeled costs are those of as many
//     Sends; a frame with a tail is joined into one pooled message first,
//     since the receiver is handed the very slice.
//   - Recv on tcp reads the socket into a per-connection read-ahead buffer
//     and cuts frames out of it: a frame wholly buffered costs no syscall,
//     a longer one takes what is buffered by one copy and the rest from the
//     socket straight into its frame. Whole frames already read are
//     delivered before a close is reported. An error from Recv is final:
//     the stream may stand anywhere inside a frame then, so every later
//     Recv on the connection returns the same error.
//   - A sender that holds messages back gathers them in a Burst, which
//     says when one more would not fit what the receiver reads at once
//     (both buffers and that bound are one size), or when the last one
//     has a tail that must leave now, and sends them with one SendBurst.
//     It refuses a message longer than a frame may be (64 MiB, head and
//     tail together) with ErrFrameTooLarge, on every transport: such a
//     message fails by itself, and neither what was gathered with it nor
//     the connection.
//
// # Buffer ownership
//
// Frames are owned by exactly one party at a time, which is what lets the
// hot path run without copies or steady-state allocation:
//
//   - Send and SendBurst take ownership of every message passed to them —
//     of a Frame's head — whether they succeed or fail. The caller must
//     not read, write, or resend a buffer after handing it over — the
//     transport forwards it (inproc passes the very slice to the peer) or
//     recycles it into the shared frame pool (tcp, after the socket
//     write). Callers that need a sent payload again must keep their own
//     copy before sending. The slice of frames given to SendBurst stays
//     the caller's, to reuse.
//   - A Frame's tail is only borrowed, until SendBurst returns: the
//     transport has copied it or written every byte of it by then, never
//     keeps it and never releases it to the pool. The sender must not
//     change it while SendBurst runs and may do anything with it after.
//   - Recv transfers ownership of the returned frame to the caller. When
//     the caller is done decoding it should hand the frame back with
//     ReleaseFrame (directly or via wire.Decoder.Release) so the storage
//     recycles; dropping it instead is safe but falls back to the garbage
//     collector.
//   - GetFrame is the matching allocator: a frame obtained from it, filled
//     and passed to Send, completes a round trip with zero allocations in
//     steady state.
package transport

import (
	"errors"
	"fmt"

	"oopp/internal/bufpool"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// ErrFrameTooLarge refuses a message longer than a frame may be (64 MiB,
// maxFrame), in Burst.Add and in tcp's write.
var ErrFrameTooLarge = errors.New("transport: frame too large")

const maxFrame = 64 << 20

// Frame is one message as a sender hands it to SendBurst: Head, then Tail.
// The transport owns Head, as Send owns its message; Tail — values the
// sender packed elsewhere, a wire.Encoder's borrowed ones — it only
// borrows, reads before SendBurst returns, and never releases. A frame
// with no tail is a whole message in Head.
type Frame struct {
	Head, Tail []byte
}

// Len is the length of the message the frame is: head and tail.
func (f Frame) Len() int { return len(f.Head) + len(f.Tail) }

// Burst gathers whole messages, in order, for one SendBurst. The zero value
// is ready, its storage is reused from flush to flush, and its owner
// serializes Add and Flush.
type Burst struct {
	frames []Frame
	bytes  int // the lengths of frames, summed
}

// Add gathers f and reports whether the burst still has room for another
// in what the receiver reads at once: when not, holding more back cannot
// save the far side a read. A frame with a tail leaves no room: its lender
// may change the tail once the SendBurst that carries it returns, so it
// must not wait for a later one. A frame too long to be one, head and tail
// together, is refused, with ErrFrameTooLarge, and its head released: the
// head is no longer the caller's either way, as with Send.
func (b *Burst) Add(f Frame) (room bool, err error) {
	if n := f.Len(); n > maxFrame {
		bufpool.Put(f.Head)
		return true, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	b.frames = append(b.frames, f)
	b.bytes += f.Len()
	return f.Tail == nil && b.bytes+frameHeader*len(b.frames) < readAhead, nil
}

// Last returns the head of the frame gathered last (nil: none), whose bytes
// are the caller's to write into until Flush.
func (b *Burst) Last() []byte {
	if n := len(b.frames); n > 0 {
		return b.frames[n-1].Head
	}
	return nil
}

// Flush sends what is gathered, if anything, on c by one SendBurst, which
// takes the heads whether it succeeds or not, and empties the burst.
func (b *Burst) Flush(c Conn) error {
	if len(b.frames) == 0 {
		return nil
	}
	err := c.SendBurst(b.frames)
	clear(b.frames)
	b.frames, b.bytes = b.frames[:0], 0
	return err
}

// Conn is a reliable, ordered, message-oriented duplex connection.
// Send and Recv are safe for concurrent use by multiple goroutines
// (sends are serialized internally; typically one goroutine receives).
type Conn interface {
	// Send transmits one message and takes ownership of msg: the caller
	// must not touch the buffer afterwards (see the package comment). The
	// transport releases it to the shared frame pool once transmitted.
	Send(msg []byte) error
	// SendBurst transmits every frame of frames, each its head followed by
	// its tail, in order and with nothing between them, as Send would one
	// by one — but in as few writes as the transport can (see the package
	// comment). Ownership of every head transfers to the transport, exactly
	// as with Send; a tail is only borrowed, until SendBurst returns. On
	// an error some of them may have been transmitted.
	SendBurst(frames []Frame) error
	// Recv blocks until the next message arrives. The returned slice is
	// owned by the caller; pass it to ReleaseFrame when done to recycle.
	Recv() ([]byte, error)
	// Close tears the connection down. Pending and future calls fail with
	// ErrClosed (or io.EOF translated to ErrClosed).
	Close() error
}

// Listener accepts inbound connections at an address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the bound address in a form Dial accepts.
	Addr() string
}

// Transport creates listeners and outbound connections.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
	// Name identifies the transport ("inproc", "tcp") in logs and tables.
	Name() string
}

// GetFrame returns a frame of length n from the shared pool, for callers
// assembling messages to Send. Contents are unspecified; overwrite fully.
func GetFrame(n int) []byte { return bufpool.GetLen(n) }

// ReleaseFrame returns a frame to the shared pool — the hook for getting
// a buffer's storage back into circulation once its owner is done with it
// (typically after decoding a frame returned by Recv). The caller must
// hold the only reference.
func ReleaseFrame(b []byte) { bufpool.Put(b) }
