package transport

import (
	"fmt"
	"sync"
	"time"

	"oopp/internal/bufpool"
)

// Inproc is an in-process transport: addresses name rendezvous points in a
// shared registry, connections are pairs of buffered channels. It is the
// default substrate for tests and benchmarks — deterministic, dependency
// free, and optionally network-shaped via a LinkModel.
type Inproc struct {
	model LinkModel

	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  int
}

// NewInproc returns a fresh in-process transport whose links all follow
// model. Distinct Inproc instances have distinct address namespaces.
func NewInproc(model LinkModel) *Inproc {
	return &Inproc{
		model:     model,
		listeners: make(map[string]*inprocListener),
	}
}

// Name implements Transport.
func (t *Inproc) Name() string { return "inproc" }

// Listen binds a listener to addr. The empty address allocates a unique
// one ("inproc-N").
func (t *Inproc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		t.nextAuto++
		addr = fmt.Sprintf("inproc-%d", t.nextAuto)
	}
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &inprocListener{
		transport: t,
		addr:      addr,
		backlog:   make(chan *inprocConn, 64),
		closed:    make(chan struct{}),
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial connects to a listener previously bound with Listen.
func (t *Inproc) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no inproc listener at %q", addr)
	}

	// A connection is two directed channels; each side sees (send, recv)
	// and owns its outbound link direction (full-duplex occupancy).
	a2b := make(chan inprocMsg, 64)
	b2a := make(chan inprocMsg, 64)
	shared := &inprocShared{
		closed: make(chan struct{}),
	}
	client := &inprocConn{send: a2b, recv: b2a, out: &link{model: t.model}, shared: shared}
	server := &inprocConn{send: b2a, recv: a2b, out: &link{model: t.model}, shared: shared}

	select {
	case l.backlog <- server:
		return client, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (t *Inproc) remove(addr string) {
	t.mu.Lock()
	delete(t.listeners, addr)
	t.mu.Unlock()
}

type inprocListener struct {
	transport *Inproc
	addr      string
	backlog   chan *inprocConn
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.transport.remove(l.addr)
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// inprocShared is the state common to both endpoints of a connection.
type inprocShared struct {
	closed    chan struct{}
	closeOnce sync.Once
}

// inprocMsg is one in-flight message: the frame plus its modeled
// arrival instant (zero for a free link). The delay is paid by the
// receiver waiting for the instant, not by the sender's CPU — see
// link.arrival.
type inprocMsg struct {
	frame   []byte
	arrival time.Time
}

type inprocConn struct {
	send   chan inprocMsg
	recv   chan inprocMsg
	out    *link
	shared *inprocShared
}

func (c *inprocConn) Send(msg []byte) error {
	// Ownership transfer: the very slice crosses to the receiver, with no
	// memcpy — the paper's point that remote invocation cost should be
	// dominated by modeled data movement, not by runtime bookkeeping. The
	// caller gave up the buffer, so on a closed connection it is recycled
	// rather than returned. Send stamps the modeled arrival instant and
	// returns: the sender is occupied only while the link transmits
	// (bandwidth term), never for the propagation delay.
	m := inprocMsg{frame: msg, arrival: c.out.arrival(len(msg))}
	select {
	case c.send <- m:
		return nil
	case <-c.shared.closed:
		bufpool.Put(msg)
		return ErrClosed
	}
}

func (c *inprocConn) SendBurst(frames []Frame) error {
	// A channel carries one message at a time, so a burst is handed over
	// message by message, each charged to the link as Send charges it:
	// counts and modeled costs are those of as many Sends. After a failure
	// the rest are recycled — the burst owns them all.
	var err error
	for _, f := range frames {
		if err != nil {
			bufpool.Put(f.Head)
			continue
		}
		err = c.Send(joined(f))
	}
	return err
}

// joined returns f as one message: its head, or, for a frame with a tail,
// a pooled frame holding both, the head recycled. The receiver is handed
// the very slice a channel carries, and a tail is only borrowed, so it is
// copied here — once, as an encoder that had packed it would have.
func joined(f Frame) []byte {
	if f.Tail == nil {
		return f.Head
	}
	m := bufpool.GetLen(f.Len())
	copy(m[copy(m, f.Head):], f.Tail)
	bufpool.Put(f.Head)
	return m
}

func (c *inprocConn) Recv() ([]byte, error) {
	// Prefer delivered data over close: once closed fires the two select
	// cases race, and an arbitrary pick could report ErrClosed while
	// responses sit in the channel. Polling the data channel first — and
	// draining it until empty after close — means an orderly shutdown
	// never drops an already-delivered message. Delivery waits for the
	// message's modeled arrival instant; waits on the same instant across
	// connections overlap (see simtime.SleepUntil).
	deliver := func(m inprocMsg) ([]byte, error) {
		awaitArrival(m.arrival)
		return m.frame, nil
	}
	select {
	case m := <-c.recv:
		return deliver(m)
	default:
	}
	select {
	case m := <-c.recv:
		return deliver(m)
	case <-c.shared.closed:
		select {
		case m := <-c.recv:
			return deliver(m)
		default:
			return nil, ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.shared.closeOnce.Do(func() { close(c.shared.closed) })
	return nil
}
