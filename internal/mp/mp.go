// Package mp is a minimal message-passing library — ranks, point-to-point
// send/receive with tag matching, and an all-to-all exchange — running
// over the same transports as the RMI runtime.
//
// The paper positions object-oriented processes against hand-written
// message passing ("Processes exchange information by executing methods on
// remote objects rather than by passing messages", §2; MPI is the §1
// comparator). This package is that comparator, implemented honestly:
// experiments E1 and E6 run the same workloads both ways and compare. It
// holds what they call and nothing more: E1's echo is Send and Recv, E6's
// transpose (pfft.MPTransform3D) is Alltoall.
package mp

import (
	"fmt"
	"sync"

	"oopp/internal/metrics"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// World is a set of size ranks fully meshed over a transport. Create it
// once, hand each worker goroutine its Comm, Close when done.
type World struct {
	size      int
	comms     []*Comm
	listeners []transport.Listener

	mu     sync.Mutex
	closed bool
}

// Comm is one rank's endpoint: point-to-point operations plus
// collectives. A Comm is used by one worker goroutine at a time (like an
// MPI rank); distinct Comms are independent.
type Comm struct {
	world *World
	rank  int
	size  int
	peers []transport.Conn // peers[rank] == nil (self)

	// counters is the rank's own registry, which World.Close closes.
	counters *metrics.Registry

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[key][][]byte
	dead   error
}

type key struct {
	from int
	tag  int
}

// Reserved tag space for collectives; user tags must be < TagCollectives.
const TagCollectives = 1 << 30

const tagAlltoall = TagCollectives

// NewWorld builds a fully connected world of n ranks over tr.
func NewWorld(tr transport.Transport, n int) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mp: world size %d", n)
	}
	w := &World{size: n}
	w.comms = make([]*Comm, n)
	for r := 0; r < n; r++ {
		c := &Comm{world: w, rank: r, size: n, peers: make([]transport.Conn, n), counters: metrics.NewRegistry(), queues: make(map[key][][]byte)}
		c.cond = sync.NewCond(&c.mu)
		w.comms[r] = c
	}

	// One listener per rank; rank i dials every rank j > i and announces
	// itself with a hello frame carrying its rank.
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		l, err := tr.Listen("")
		if err != nil {
			w.Close()
			return nil, err
		}
		w.listeners = append(w.listeners, l)
		addrs[r] = l.Addr()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for j := 1; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// Rank j accepts j inbound connections (from ranks 0..j-1).
			for k := 0; k < j; k++ {
				conn, err := w.listeners[j].Accept()
				if err != nil {
					errCh <- err
					return
				}
				hello, err := conn.Recv()
				if err != nil {
					errCh <- err
					return
				}
				d := wire.NewDecoder(hello)
				from := d.Int()
				if d.Err() != nil || from < 0 || from >= n {
					errCh <- fmt.Errorf("mp: bad hello from peer")
					return
				}
				w.comms[j].peers[from] = conn
			}
		}(j)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conn, err := tr.Dial(addrs[j])
			if err != nil {
				errCh <- err
				break
			}
			e := wire.NewEncoder(8)
			e.PutInt(i)
			if err := conn.Send(e.Bytes()); err != nil {
				errCh <- err
				break
			}
			w.comms[i].peers[j] = conn
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			w.Close()
			return nil, err
		}
	}

	// Start receive loops: one per directed link.
	for r := 0; r < n; r++ {
		c := w.comms[r]
		for p := 0; p < n; p++ {
			if c.peers[p] != nil {
				go c.recvLoop(p, c.peers[p])
			}
		}
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns rank r's endpoint.
func (w *World) Comm(r int) *Comm { return w.comms[r] }

// Close tears down every connection and closes the ranks' registries;
// blocked receives fail.
func (w *World) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	for _, l := range w.listeners {
		l.Close()
	}
	for _, c := range w.comms {
		if c == nil {
			continue
		}
		for _, p := range c.peers {
			if p != nil {
				p.Close()
			}
		}
		c.fail(transport.ErrClosed)
		c.counters.Close()
	}
}

// Run spawns one goroutine per rank executing body and waits for all;
// the first non-nil error is returned. This is the "mpirun" of the
// package.
func (w *World) Run(body func(c *Comm) error) error {
	errs := make(chan error, w.size)
	for r := 0; r < w.size; r++ {
		go func(c *Comm) { errs <- body(c) }(w.comms[r])
	}
	var first error
	for i := 0; i < w.size; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

func (c *Comm) fail(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *Comm) recvLoop(from int, conn transport.Conn) {
	for {
		frame, err := conn.Recv()
		if err != nil {
			c.fail(err)
			return
		}
		d := wire.NewDecoder(frame)
		tag := d.Int()
		payload := d.BytesCopy()
		err = d.Err()
		// The frame was copied out; recycle it into the shared pool.
		transport.ReleaseFrame(frame)
		if err != nil {
			c.fail(err)
			return
		}
		c.deliver(from, tag, payload)
	}
}

func (c *Comm) deliver(from, tag int, payload []byte) {
	k := key{from, tag}
	c.mu.Lock()
	c.queues[k] = append(c.queues[k], payload)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Send transmits payload to rank `to` with the given tag (user tags must
// be below TagCollectives). Sends are buffered (asynchronous): Send
// returns once the transport accepts the frame.
func (c *Comm) Send(to, tag int, payload []byte) error {
	if tag >= TagCollectives {
		return fmt.Errorf("mp: tag %d is reserved for collectives", tag)
	}
	return c.send(to, tag, payload)
}

// send is Send without the reserved-tag check, used by the collectives.
func (c *Comm) send(to, tag int, payload []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("mp: send to rank %d of %d", to, c.size)
	}
	if to == c.rank {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		c.deliver(c.rank, tag, cp)
		return nil
	}
	e := wire.NewEncoder(8 + len(payload))
	e.PutInt(tag)
	e.PutBytes(payload)
	c.counters.MessagesSent.Add(1)
	c.counters.BytesSent.Add(int64(e.Len()))
	return c.peers[to].Send(e.Bytes())
}

// Recv blocks for the next message from rank `from` with the given tag.
// Messages from one sender with one tag arrive in send order.
func (c *Comm) Recv(from, tag int) ([]byte, error) {
	if tag >= TagCollectives {
		return nil, fmt.Errorf("mp: tag %d is reserved for collectives", tag)
	}
	return c.recv(from, tag)
}

// recv is Recv without the reserved-tag check, used by the collectives.
func (c *Comm) recv(from, tag int) ([]byte, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("mp: recv from rank %d of %d", from, c.size)
	}
	k := key{from, tag}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queues[k]) == 0 && c.dead == nil {
		c.cond.Wait()
	}
	if len(c.queues[k]) == 0 {
		return nil, c.dead
	}
	msg := c.queues[k][0]
	c.queues[k] = c.queues[k][1:]
	return msg, nil
}
