package rmi

import "sync"

// task is one unit of work delivered to an object's process goroutine.
// The hot path (method invocation) uses pooled *callTask values; control
// work (destructors, shutdown hooks) uses funcTask closures. An interface
// with pointer/func implementations boxes without allocating.
type task interface{ run() }

// funcTask adapts a closure to the task interface for cold paths.
type funcTask func()

func (f funcTask) run() { f() }

// mailboxMinCap is the smallest ring the mailbox keeps. A steady stream
// of calls cycles within it without ever reallocating.
const mailboxMinCap = 16

// mailboxShrinkCap is the ring size above which a drained mailbox gives
// memory back: a burst may grow the ring arbitrarily, but the high-water
// backing array must not stay pinned for the life of the object.
const mailboxShrinkCap = 64

// mailbox is an unbounded FIFO queue feeding an object's goroutine. It is
// the object's "process" inbox: pushes never block (so a server read loop
// can always make progress), pops block until work or close.
//
// The queue is a ring buffer: steady-state traffic reuses the same slots
// instead of sliding a slice window (append + [1:]) down an ever-growing
// backing array, and drained bursts shrink the ring back down instead of
// pinning their high-water allocation forever.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []task // ring storage; len(buf) is the capacity
	head   int    // index of the oldest queued task
	n      int    // number of queued tasks
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues t. It reports false if the mailbox is closed (the process
// has terminated or is terminating).
func (m *mailbox) push(t task) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.n == len(m.buf) {
		grow := 2 * len(m.buf)
		if grow < mailboxMinCap {
			grow = mailboxMinCap
		}
		m.resize(grow)
	}
	m.buf[(m.head+m.n)%len(m.buf)] = t
	m.n++
	m.cond.Signal()
	return true
}

// resize moves the ring into a buffer of the given capacity (>= m.n),
// unwinding the wrap so head restarts at 0.
func (m *mailbox) resize(capacity int) {
	nb := make([]task, capacity)
	for i := 0; i < m.n; i++ {
		nb[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf = nb
	m.head = 0
}

// popBatch dequeues up to len(dst) tasks in one lock acquisition,
// blocking while the mailbox is empty and open. It returns the number of
// tasks written to dst and whether the mailbox is still usable; (0,
// false) means closed and drained. Draining runs of tasks per lock is
// what keeps a busy object's goroutine from paying one mutex round trip
// per message.
func (m *mailbox) popBatch(dst []task) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.n == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.n == 0 {
		return 0, false
	}
	k := len(dst)
	if k > m.n {
		k = m.n
	}
	for i := 0; i < k; i++ {
		j := (m.head + i) % len(m.buf)
		dst[i] = m.buf[j]
		m.buf[j] = nil
	}
	m.head = (m.head + k) % len(m.buf)
	m.n -= k
	// Give back burst memory: halve while the ring is mostly empty, down
	// to the shrink threshold (never below the steady-state minimum).
	for len(m.buf) > mailboxShrinkCap && m.n <= len(m.buf)/4 {
		m.resize(len(m.buf) / 2)
	}
	return k, true
}

// close marks the mailbox closed. Tasks already queued still run; new
// pushes are refused. Safe to call more than once.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.cond.Broadcast()
}

// run processes tasks until the mailbox closes and drains. It is the body
// of the object's process goroutine.
func (m *mailbox) run() {
	var local [16]task
	for {
		k, ok := m.popBatch(local[:])
		for i := 0; i < k; i++ {
			local[i].run()
			local[i] = nil
		}
		if !ok {
			return
		}
	}
}
