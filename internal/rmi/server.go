package rmi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oopp/internal/metrics"
	"oopp/internal/trace"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// ResourceServer is the Env resource name under which a machine's own
// Server is installed, for infrastructure objects (e.g. the persistence
// store) that must manage local processes. The cluster package installs
// it at machine bring-up.
const ResourceServer = "rmi/server"

// Server hosts the remote objects of one machine. It accepts connections,
// decodes request frames, and routes them: constructions spawn object
// processes, serial calls flow through object mailboxes, concurrent calls
// and constructors run on their own goroutines.
type Server struct {
	machine  int
	env      *Env
	listener transport.Listener

	// The machine's telemetry registry, served raw by the opDebug
	// introspection op. stats is the always-on per-method part: one record
	// per class.method (methodRecord: a latency histogram, outcome
	// counters, and what decides whether the method may run on a reader),
	// indexed by methodEntry.index, in a published table that is never
	// written, which methodStats replaces, under mu, on a method's first
	// call here. counters is the machine's counters (Env.Counters), which
	// Close closes: the replies sent and the requests admission shed count
	// there; the requests that expired are the methods' Expired.
	stats    atomic.Pointer[[]*methodRecord]
	counters *metrics.Registry

	// objects is the live object table. adopt, a take and Close write it
	// under mu, and each publishes a copy in table, which is never written:
	// a request looks an object up there without a lock. Objects are born
	// and die far less often than they are called.
	mu      sync.Mutex
	objects map[uint64]*objEntry
	table   atomic.Pointer[map[uint64]*objEntry]
	nextID  uint64
	total   atomic.Uint64 // objects ever adopted under a fresh id
	conns   map[transport.Conn]struct{}

	// stopped holds stopDraining and stopClosed, which Drain and Close set
	// under mu: once either is set no new work is admitted.
	stopped atomic.Uint32

	// Admission control state (see admission.go): per-class in-flight
	// caps and depths, and ewmaNs, the recent service time per class for
	// the retry-after hint on rejections.
	admitCap   [NumPriorities]atomic.Int64
	admitDepth [NumPriorities]atomic.Int64
	ewmaNs     [NumPriorities]atomic.Int64

	// tokens counts drain tokens: one per accepted request (construction
	// or method call) from admission until its reply is written, and one
	// the server holds until it is first stopped. So the count reaches
	// zero once, when the server is stopped and every accepted request has
	// answered; the release that brings it there closes drained, which
	// Drain waits on. Nothing is admitted once the count is zero.
	tokens  atomic.Int64
	drained chan struct{}

	// connWG tracks transport goroutines (accept loop, per-connection
	// readers, the watchdog): Close always drains these. objWG tracks
	// object work (process goroutines, constructors, concurrent methods,
	// a reader the watchdog replaced): Close waits for these only up to
	// closeGrace, because a method blocked forever inside an object cannot
	// be preempted — like a real process ignoring SIGTERM — and must not
	// wedge machine shutdown.
	connWG sync.WaitGroup
	objWG  sync.WaitGroup

	// wmu guards the watchdog's state: watched lists the readers that
	// have run a method inline since its last tick, and armed says that
	// it runs.
	wmu     sync.Mutex
	watched []*connReader
	armed   bool
}

// closeGrace bounds how long Close waits for object goroutines to finish
// their queued work (including destructors).
const closeGrace = 2 * time.Second

// inlineTick is the watchdog's period: a connection whose reader has run
// one method inline (runInline) for a whole tick gets a fresh reader, so a
// method that blocks holds up what follows it on its connection by one to
// two ticks — unless what follows comes from a client of this process,
// which frees the connection at once (handOffRun).
const inlineTick = time.Millisecond

// inlineQuick is how long a collective's member may have taken, last time
// its method was called here, queueing included, to run on the reader. It
// leaves out the methods that block or are slow, and a method never seen
// here runs in its mailbox first; with memberBudget, a group keeps its
// reader for well under a tick. (In BenchmarkFanOutSpinTCP, members that
// spin 1 to 4 µs read quick; of 15 µs and more, queued behind each other
// in their mailboxes on 2 vCPUs, never.)
const inlineQuick = inlineTick / DefaultWindow

// memberBudget is how long a reader may run one reply group's members
// inline: a member that finds the group's inline time at or past it goes
// to its mailbox, and the members that follow run in parallel, each on its
// object's goroutine. A group within the budget saves its wakes; one past
// it costs at most the budget's share that the mailboxes would have run
// in parallel, on 2 vCPUs about half of it, one wake. It is set from
// BenchmarkFanOutSpinTCP, a collective of eight members on one machine
// that spin for a set time (2 vCPUs, TCP loopback): at 8 µs, members of 1
// and 2 µs were faster on the reader than woken in their mailboxes, those
// of 4 µs, which fill it, cost about a wake more, and none of 8 µs or more
// ran there; at 16 µs members of 4 µs cost more than at 8.
const memberBudget = 8 * time.Microsecond

// A method whose inline runs handOffRun hands off callsOutMark times in a
// row calls back through the client that called it: its requests go to
// its mailbox, but for one in callsOutRetry, which runs on the reader
// again to look. A run that returns on its reader clears the count, so a
// request of another caller that coincided with the method's run marks
// nothing for long.
const (
	callsOutMark  = 2
	callsOutRetry = 64
)

// methodRecord is one method's record on one server: its telemetry, and
// what decides whether it may run on a connection's reader. quick says
// that its last request here took under inlineQuick, from admission to
// reply; finish stores it only when it changes. callsOut counts the
// method's inline runs in a row that handOffRun handed off, up to
// callsOutMark, and from there counts down the requests that go to the
// mailbox before one runs on the reader again (callsOutRetry).
type methodRecord struct {
	trace.MethodStats
	quick    atomic.Bool
	callsOut atomic.Int32
}

// objEntry is one live object: its instance, class, and process mailbox.
type objEntry struct {
	id    uint64
	class *ClassSpec
	obj   any
	mb    *mailbox
}

// NewServer creates a server for machine `machine`, listening on addr via
// tr, and starts its accept loop. Pass addr "" for an automatic address.
// env may be nil, in which case a bare environment is created.
func NewServer(machine int, tr transport.Transport, addr string, env *Env) (*Server, error) {
	if env == nil {
		env = NewEnv(machine)
	}
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("rmi: machine %d listen: %w", machine, err)
	}
	s := &Server{
		machine:  machine,
		env:      env,
		counters: env.Counters(),
		listener: l,
		objects:  make(map[uint64]*objEntry),
		conns:    make(map[transport.Conn]struct{}),
		drained:  make(chan struct{}),
	}
	s.publishObjects()
	s.stats.Store(new([]*methodRecord))
	s.tokens.Store(1)
	s.SetAdmission(AdmissionConfig{})
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address clients dial.
func (s *Server) Addr() string { return s.listener.Addr() }

// Env returns the server's environment (for installing resources).
func (s *Server) Env() *Env { return s.env }

// NumObjects returns the number of live objects.
func (s *Server) NumObjects() int { return len(*s.table.Load()) }

// publishObjects publishes a copy of the object table for lookups. The
// caller holds s.mu, or is NewServer.
func (s *Server) publishObjects() {
	table := maps.Clone(s.objects)
	s.table.Store(&table)
}

// Drain puts the server into graceful-shutdown mode and waits (bounded
// by ctx) for in-flight work to finish. From the moment Drain is called,
// new constructions and method calls — pings included, so failure
// detectors and readiness probes see the machine leaving — are refused
// with ErrDraining (a typed RemoteError on the client side), while calls
// already accepted run to completion and their replies are delivered.
// Deletes and stats keep working, so clients can tear down state during
// the drain window. Call Close afterwards to release the listener and
// terminate object processes; the SIGTERM path of cmd/oppcluster is
// exactly Drain-then-Close.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.stop(stopDraining)
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("rmi: machine %d drain: %w", s.machine, ctx.Err())
	}
}

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.stopped.Load()&stopDraining != 0 }

// closed reports whether Close was called.
func (s *Server) closed() bool { return s.stopped.Load()&stopClosed != 0 }

// Close shuts the server down: stop accepting, close connections,
// terminate every object process (running destructors), wait for
// goroutines to drain, and close the machine's counter registry.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed() {
		s.mu.Unlock()
		return nil
	}
	s.stop(stopClosed)
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	entries := slices.Collect(maps.Values(s.objects))
	clear(s.objects)
	s.publishObjects()
	s.mu.Unlock()

	s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, e := range entries {
		e := e
		e.mb.push(funcTask(func() { s.destroyObject(e) }))
		e.mb.close()
	}
	s.connWG.Wait()
	select {
	case <-waited(&s.objWG):
	case <-time.After(closeGrace):
		// One or more object methods are blocked indefinitely; their
		// goroutines are abandoned (they exit if the method ever returns).
	}
	s.counters.Close()
	return nil
}

// waited returns a channel that closes once wg's count is zero.
func waited(wg *sync.WaitGroup) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(&connReader{Conn: conn})
	}
}

func (s *Server) dropConn(conn transport.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// connReader is the server's side of one accepted connection: the
// connection, read by one goroutine at a time, and that goroutine's state
// for the watchdog. The state counts the reader's inline runs: even while
// it reads, odd while it runs a method inline (req is that request's id,
// rec its method's record, nil for the object ping), handedOff once the
// connection has been given to another reader — a fresh connReader —
// while this one was in a method. open is the reply group open on the
// connection after the request run inline: a fresh reader starts with its
// predecessor's, so the members that follow join the group the inline one
// did. The reader writes rec and open before it goes inline, and handOff
// reads them only once it has moved the state from that run to handedOff.
// spent is the time the reader has run the open group's members inline,
// its own (memberBudget).
type connReader struct {
	transport.Conn
	state  atomic.Uint64
	req    atomic.Uint64
	rec    *methodRecord
	open   *replyGroup
	spent  time.Duration
	listed atomic.Bool // in its server's watched list
	seen   uint64      // the state at the watchdog's last tick, under wmu
}

const handedOff = ^uint64(0)

// serveConn is the per-connection read loop. It blocks on object work only
// up to the watchdog: serial calls are enqueued, everything long-running
// gets its own goroutine, and a waited call or a collective's quick member
// to an idle object runs here (runInline) until it returns or the
// connection is handed to a fresh reader, whereupon this goroutine, object
// work from then on, ends with the method. It keeps the connection's open
// reply group — starting with the one its predecessor handed it (r.open) —
// which the end of the connection closes: the replies gathered in it still
// leave (or fail to) and retire their drain tokens.
func (s *Server) serveConn(r *connReader) {
	open := r.open
	for {
		frame, err := r.Recv()
		if err != nil {
			open.close()
			s.dropConn(r.Conn)
			s.connWG.Done()
			return
		}
		open = s.dispatch(r, frame, open)
		if r.state.Load() == handedOff {
			s.objWG.Done()
			return
		}
	}
}

// runInline runs t — a call of a serial method or the object ping that
// may run on r (handleCall), whose object's turn the caller has claimed —
// on r's goroutine, and gives the turn back once finish has written the
// reply, or added it to its group, and run its giveBack. A reader the
// watchdog has not listed since its last tick is listed first (watch), so
// no timer is touched per call. A member's time adds to the group's
// (r.spent); a run that returns on r clears its method's callsOut count.
func (s *Server) runInline(t *callTask, r *connReader) {
	mb, member, rec := t.entry.mb, t.member, t.stats
	if member {
		if n := memberRuns.Load(); n != nil {
			n.Add(1)
		}
	}
	r.req.Store(t.reqID)
	r.rec = rec
	v := r.state.Add(1) // odd: inline
	if !r.listed.Load() {
		s.watch(r)
	}
	took := t.call()
	mb.release()
	if member {
		r.spent += took
	}
	if r.state.CompareAndSwap(v, v+1) && rec != nil && rec.callsOut.Load() != 0 { // fails once handed off
		rec.callsOut.Store(0)
	}
}

// watch lists r for the watchdog, and arms the watchdog if it is not
// armed; r's connWG count keeps Close's wait from ending before the
// watchdog's is added.
func (s *Server) watch(r *connReader) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if r.listed.Load() {
		return
	}
	r.listed.Store(true)
	s.watched = append(s.watched, r)
	if !s.armed {
		s.armed = true
		watchdogs.set(s, true)
		s.connWG.Add(1)
		go s.watchdog()
	}
}

// watchdog ticks while the server has listed readers, and disarms at the
// first tick that leaves none.
func (s *Server) watchdog() {
	defer s.connWG.Done()
	for {
		time.Sleep(inlineTick)
		s.wmu.Lock()
		s.tick()
		if len(s.watched) == 0 {
			s.armed = false
			watchdogs.set(s, false)
			s.wmu.Unlock()
			return
		}
		s.wmu.Unlock()
	}
}

// tick is one look, under wmu, at the readers that have run a method
// inline since the last: one still in the run it was in then has spent a
// whole tick in one method, and its connection gets a fresh reader
// (handOff); one that has run nothing since leaves the list. Leaving
// stores listed before it looks at the state once more, and a reader
// going inline sets its state before it looks at listed, so one of the two
// sees the other: no inline run goes unwatched.
func (s *Server) tick() {
	kept := s.watched[:0]
	for _, r := range s.watched {
		v := r.state.Load()
		if v == handedOff {
			continue
		}
		if v == r.seen {
			if v&1 == 1 && s.handOff(r, v) {
				continue
			}
			if v&1 == 0 {
				r.listed.Store(false)
				if r.state.Load() == v {
					continue
				}
				r.listed.Store(true)
			}
		}
		r.seen = v
		kept = append(kept, r)
	}
	clear(s.watched[len(kept):])
	s.watched = kept
}

// memberRuns, when set, counts the collective members run on a reader:
// tests set it to see which requests run there.
var memberRuns atomic.Pointer[atomic.Int64]

// handOff gives r's connection a fresh reader, under wmu, if r is still in
// inline run v and the server serves the connection (one whose requests
// come by other means has no reader to replace). The fresh reader carries
// on the reply group open after r's request, takes over r's connWG count,
// and r, object work from then on, counts in objWG until its method
// returns. mu keeps the connection from being dropped, and so Close from
// waiting on objWG, before the count has moved.
func (s *Server) handOff(r *connReader, v uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, served := s.conns[r.Conn]; !served {
		return false
	}
	s.objWG.Add(1) // before the swap: the method may return at once
	if !r.state.CompareAndSwap(v, handedOff) {
		s.objWG.Done()
		return false
	}
	go s.serveConn(&connReader{Conn: r.Conn, open: r.open})
	return true
}

// handOffRun gives a fresh reader to every connection whose reader, in a
// server of this process for machine m, runs inline a request numbered
// from lo to hi, and counts the hand-off in the record of the method it
// runs (methodRecord.callsOut). A client calls it when it sends a request
// on a connection behind a waited one (lo = hi = its number) or behind
// the members of a reply group still unanswered (their numbers on that
// connection lie from lo to hi): the method may be what sends it —
// calling back through the client that called it — and would otherwise
// wait for the watchdog's tick to have it read, as it would on every later
// call. Request numbers are unique per client only, and the request may
// come from another goroutine of the client, so a method that does not
// call back may be handed off too: that costs a goroutine, and is marked
// only if its next inline run is handed off as well.
func handOffRun(m int, lo, hi uint64) {
	list := watchdogs.servers.Load()
	if list == nil {
		return
	}
	for _, s := range *list {
		if s.machine != m {
			continue
		}
		s.wmu.Lock()
		for _, r := range s.watched {
			v, req := r.state.Load(), r.req.Load()
			if v&1 == 0 || v == handedOff || req < lo || req > hi || !s.handOff(r, v) {
				continue
			}
			if r.rec != nil && r.rec.callsOut.Add(1) == callsOutMark {
				r.rec.callsOut.Store(callsOutMark + callsOutRetry)
			}
		}
		s.wmu.Unlock()
	}
}

// watchdogList lists the servers of this process whose watchdog is armed,
// as a published copy that is never written: handOffRun reads it without
// a lock.
type watchdogList struct {
	mu      sync.Mutex
	servers atomic.Pointer[[]*Server]
}

var watchdogs watchdogList

// set puts s on the list, or takes it off.
func (w *watchdogList) set(s *Server, armed bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var list []*Server
	if p := w.servers.Load(); p != nil {
		list = slices.Clone(*p)
	}
	if armed {
		list = append(list, s)
	} else {
		list = slices.DeleteFunc(list, func(x *Server) bool { return x == s })
	}
	w.servers.Store(&list)
}

// callTask is one request, from the frame that carried it to the frame
// that answers it: what dispatch decoded, the admission token it holds,
// and — for a method call — the mailbox task the object's process runs.
// Records recycle through a pool, so a steady request stream enqueues,
// runs, and replies without allocating. Whatever the operation, a record
// ends in exactly one finish.
type callTask struct {
	s     *Server
	conn  transport.Conn
	reqID uint64
	args  *wire.Decoder // owns the request frame, op header consumed
	reply *wire.Encoder // the answer, header written; nil until answer()

	admitted bool          // an admission token is held (opNew, opCall)
	prio     Priority      // its class
	start    time.Duration // admission instant, since epoch: service-time EWMA, latency histogram
	group    *replyGroup   // the reply group the request joined (of one, when by itself)

	entry    *objEntry
	me       methodEntry // zero me.fn marks the built-in ping (nothing to run)
	deadline int64       // client deadline, unix nanos (0 = none)
	inline   *connReader // may run the call itself: a waited request, or a member of a group of several; nil otherwise
	member   bool        // of a reply group of several

	env   *Env          // handler environment (per-call view when traced)
	span  *trace.Span   // server span of a sampled request; nil otherwise
	stats *methodRecord // record of a method that reached run (or runInline)
}

var callTaskPool = sync.Pool{New: func() any { return new(callTask) }}

// epoch is the origin of callTask.start. An instant stamped as an offset
// from it is one read of the monotonic clock, where time.Now is two.
var epoch = time.Now()

// errExpired answers a call whose client deadline passed while it sat in
// the mailbox: nobody is waiting for the result, so executing it would
// be pure waste. The text carries the error the client's own timer
// reports (errors.Is matches context.DeadlineExceeded across the wire).
var errExpired = fmt.Errorf("expired before execution: %v", context.DeadlineExceeded)

// dispatch decodes one request frame that r read into a record, files it
// into the connection's reply grouping — open is the group open before
// the frame (nil: none), and the one open after it is returned — and
// routes it. A waited request alone in its group, or a member of a group
// of several — one that is marked or closes an open group — may run on r
// (handleCall). The record owns the pooled decoder and the frame under it
// until finish.
func (s *Server) dispatch(r *connReader, frame []byte, open *replyGroup) *replyGroup {
	d := wire.GetFrameDecoder(frame)
	lead := d.Byte()
	reqID := d.Uvarint()
	op := d.Uvarint()
	if d.Err() != nil {
		// No usable request id: nothing sensible to reply to. The burst
		// the frame came in ends here all the same.
		d.Release()
		open.close()
		return nil
	}
	t := callTaskPool.Get().(*callTask)
	marked := lead&leadGroupFlag != 0
	t.member = marked || open != nil
	if open == nil {
		open = replyGroupPool.Get().(*replyGroup)
		open.s, open.conn = s, r.Conn
		r.spent = 0
	}
	open.mu.Lock()
	open.pending++
	open.closed = !marked
	open.mu.Unlock()
	t.s, t.conn, t.reqID, t.args, t.group = s, r.Conn, reqID, d, open
	if !marked {
		open = nil // the group is closed, and may be answered once routed
	}
	if t.member || lead&leadWaitedFlag != 0 {
		t.inline, r.open = r, open
	}
	s.route(t, lead, op)
	return open
}

// route runs the request of t, whose lead byte and opcode have been read.
//
// Admission runs before the op-specific header is decoded: for calls and
// constructions only the fixed-offset priority byte and the two leading
// varints have been read when a shed decision is made, so a saturated
// server spends near-zero work per rejected request. Pings, stats and
// deletes are control plane and bypass admission entirely (pings still
// observe draining); so does the debug plane — introspection that goes
// dark under overload is useless exactly when needed.
func (s *Server) route(t *callTask, lead byte, op uint64) {
	d := t.args
	// The optional trace header sits between the op and the op-specific
	// header; decoding it is three fields, and only when the lead byte
	// announces one — untraced frames pay nothing here.
	tc := decodeTraceHeader(lead, d)
	if op == opNew || op == opCall {
		prio := clampPriority(lead)
		if err := s.admit(prio); err != nil {
			if tc.Sampled {
				trace.Emit(tc, s.machine, shedNote[op])
			}
			t.finish(err)
			return
		}
		t.admitted, t.prio, t.start = true, prio, time.Since(epoch)
	}
	switch op {
	case opPing:
		if s.Draining() {
			t.finish(ErrDraining)
			return
		}
		t.finish(nil)
	case opStat:
		reply := t.answer()
		reply.PutUvarint(uint64(s.NumObjects()))
		reply.PutUvarint(s.total.Load())
		t.finish(nil)
	case opDebug:
		snap, err := s.debugSnapshot()
		if err == nil {
			t.answer().PutBytes(snap)
		}
		t.finish(err)
	case opNew:
		class := d.String()
		if d.Err() != nil {
			t.finish(d.Err())
			return
		}
		// Constructors may do arbitrary work (open devices, call other
		// machines), so they run on their own goroutine — this is the
		// birth of the new process.
		s.objWG.Add(1)
		go func() {
			defer s.objWG.Done()
			t.finish(s.handleNew(t, class, tc))
		}()
	case opCall:
		objID := d.Uvarint()
		method := d.StringBytes() // view: valid until finish releases the frame
		t.deadline = d.Varint()   // absolute unix nanos; 0 = none
		if d.Err() != nil {
			t.finish(d.Err())
			return
		}
		s.handleCall(t, objID, method, tc)
	case opDelete:
		objID := d.Uvarint()
		if d.Err() != nil {
			t.finish(d.Err())
			return
		}
		s.handleDelete(t, objID)
	default:
		t.finish(fmt.Errorf("rmi: unknown opcode %d", op))
	}
}

// shedNote is what a sampled request's trace shows when admission
// refuses it.
var shedNote = [...]string{opNew: "shed new", opCall: "shed call"}

// answer takes the reply encoder with the response header (reqID,
// statusOK) already in it, so whatever the operation appends — a
// method's results, a new object's id, the stat counters, the debug
// snapshot — is written once, into the frame that leaves. It is taken
// when the answer is written, not before: a request waiting in a mailbox
// holds no buffer.
func (t *callTask) answer() *wire.Encoder {
	t.reply = wire.GetEncoder(96)
	t.reply.PutUvarint(t.reqID)
	t.reply.PutUvarint(statusOK)
	return t.reply
}

// finish answers the request and gives back everything it held, in the
// one order every operation shares. A non-nil err replaces whatever the
// reply holds with an error frame carrying its text. The server's
// bookkeeping is finished BEFORE the reply goes on the wire: a client
// holding its reply may pull the debug snapshot (which bypasses the
// mailbox) and must find its own call's span and stats there, and its
// next request — on this connection or another — must find the admission
// slot this one held free. Latency runs from admission to the reply
// hand-off (queueing included — that is what the caller experienced),
// read off the clock once for the histogram and the service-time EWMA.
// The reply and the drain token leave one way, through the request's reply
// group (a lone request is a group of one), which retires the token only
// AFTER the reply is on the wire: Drain returning means every accepted
// request has answered.
//
// A method may end its reply with values it lends (wire.Encoder's
// BorrowFloat64s): the reply leaves as a frame with that tail, and the
// lender's giveBack runs once the group's add has returned. A frame with a
// tail never waits in a group (transport.Burst.Add leaves no room after
// it), so by then the reply has been written, or its write has failed;
// and on a mailbox's goroutine that is before the object's next serial
// method. An error reply drops the tail, and the encoder gives it back.
// finish returns the request's latency (0 when it was not admitted).
func (t *callTask) finish(err error) time.Duration {
	s, reply := t.s, t.reply
	t.args.Release() // handler done: recycle the request frame
	if reply == nil {
		reply = t.answer()
	}
	if err != nil {
		errorReply(reply, t.reqID, err)
	}
	head, tail, giveBack := reply.DetachFrame()
	wire.PutEncoder(reply)
	admitted, reqID, group := t.admitted, t.reqID, t.group
	var took time.Duration
	if admitted {
		took = time.Since(epoch) - t.start
	}
	if t.stats != nil {
		if quick := took < inlineQuick; t.stats.quick.Load() != quick {
			t.stats.quick.Store(quick)
		}
		t.stats.Hist.Observe(took)
		switch {
		case err == nil:
			t.stats.OK.Add(1)
		case errors.Is(err, errExpired):
			t.stats.Expired.Add(1)
		case errors.Is(err, ErrFenced):
			t.stats.Fenced.Add(1)
		default:
			t.stats.Errs.Add(1)
		}
	}
	t.span.End(err != nil)
	if admitted {
		s.freeSlot(t.prio, took)
	}
	*t = callTask{}
	callTaskPool.Put(t)
	group.add(reqID, transport.Frame{Head: head, Tail: tail}, admitted)
	if giveBack != nil {
		giveBack()
	}
	return took
}

// errorReply makes e the reply that answers request reqID with err; a
// borrowed tail is given back.
func errorReply(e *wire.Encoder, reqID uint64, err error) {
	e.Reset()
	e.PutUvarint(reqID)
	e.PutUvarint(statusErr)
	e.PutString(err.Error())
}

// replyGroup gathers the replies of one run of requests on one connection,
// so that they leave in one write as the requests arrived in one. A marked
// request (leadGroupFlag) joins the connection's open group, opening one
// if there is none; an unmarked one joins it and closes it, or, with none
// open, is a group of one; a frame dropped as undecodable, or the end of
// the connection, closes it with no member. The member that completes a
// closed group writes every reply gathered and only then retires the drain
// tokens of the members that held one. A reply after which the burst has
// no room for another leaves at once with the gathered ones; a reply too
// long to be a frame is answered with an error reply instead. Groups
// recycle through a pool, their reply storage with them.
type replyGroup struct {
	s    *Server
	conn transport.Conn

	mu      sync.Mutex
	pending int             // members that joined and have not answered
	closed  bool            // no member joins any more
	replies transport.Burst // gathered, in the order they were added
	tokens  int             // drain tokens of the members whose replies are gathered
}

var replyGroupPool = sync.Pool{New: func() any { return new(replyGroup) }}

// add takes the reply frame of member reqID, and its drain token if it held
// one, and writes what is gathered when the group is complete or has no
// room for another reply — at once, for a frame with a tail.
func (g *replyGroup) add(reqID uint64, frame transport.Frame, token bool) {
	g.mu.Lock()
	g.pending--
	if token {
		g.tokens++
	}
	n := frame.Len()
	room, err := g.replies.Add(frame)
	if err != nil {
		e := wire.GetEncoder(96)
		errorReply(e, reqID, err)
		n = e.Len()
		room, _ = g.replies.Add(transport.Frame{Head: e.Detach()}) // an error reply is short
		wire.PutEncoder(e)
	}
	g.s.counters.MessagesSent.Add(1)
	g.s.counters.BytesSent.Add(int64(n))
	g.unlock(!room)
}

// close closes the group with no further member. A nil group is none.
func (g *replyGroup) close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closed = true
	g.unlock(false)
}

// unlock writes what is gathered — when write says so, or when the group
// is complete — then retires the drain tokens of what it wrote, and lets
// go of the group; a complete group goes back to the pool.
func (g *replyGroup) unlock(write bool) {
	done := g.closed && g.pending == 0
	if write || done {
		// Best effort: if the connection died, the client sees it go.
		_ = g.replies.Flush(g.conn)
		if g.tokens > 0 {
			g.s.release(g.tokens)
		}
		g.tokens = 0
	}
	g.mu.Unlock()
	if done {
		g.s, g.conn, g.closed = nil, nil, false
		replyGroupPool.Put(g)
	}
}

// callEnv derives the environment a handler runs under. Untraced
// requests get the machine's base environment (no copy, no allocation);
// a request carrying trace context gets a per-call view whose Ctx
// carries it, so peer hops through env.Client extend the caller's trace.
// For sampled requests a server span is opened as the new parent; the
// returned span is nil otherwise (nameIfSampled is called only when a
// span is actually opened, keeping name concatenation off the
// unsampled path).
func (s *Server) callEnv(tc trace.SpanContext, nameIfSampled func() string) (*Env, *trace.Span) {
	if tc.TraceID == 0 {
		return s.env, nil
	}
	if !tc.Sampled {
		return s.env.withCtx(trace.ContextWith(context.Background(), tc)), nil
	}
	sp := trace.StartChild(tc, nameIfSampled())
	sp.SetMachine(s.machine)
	return s.env.withCtx(trace.ContextWith(context.Background(), sp.Context())), sp
}

// handleNew constructs and adopts an object of class and writes its id
// as t's answer, or returns the error to send back: the constructor's own,
// which the client's RemoteError names the construction of.
func (s *Server) handleNew(t *callTask, class string, tc trace.SpanContext) error {
	cl, ok := LookupClass(class)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	var env *Env
	env, t.span = s.callEnv(tc, func() string { return "serve new " + class })
	obj, err := s.construct(cl, env, t.args)
	if err != nil {
		return err
	}
	id, err := s.adopt(cl, obj, 0)
	if err != nil {
		return err
	}
	t.answer().PutUvarint(id)
	return nil
}

// construct runs a constructor, converting panics into errors: a buggy
// remote constructor must not take down the machine.
func (s *Server) construct(cl *ClassSpec, env *Env, args *wire.Decoder) (obj any, err error) {
	defer catch("constructor", &err)
	return cl.ctor(env, args)
}

// catch, deferred, turns a panic of user code into the error its caller
// returns: "<what> panic: <value>".
func catch(what string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s panic: %v", what, r)
	}
}

// adopt registers an already-built object — under a fresh id when id is
// 0, under the given one otherwise — and starts its process goroutine.
// It is the only place an object enters the table: constructions, objects
// created server-side (AddObject) and ones put back after TakeObject.
func (s *Server) adopt(cl *ClassSpec, obj any, id uint64) (uint64, error) {
	entry := &objEntry{id: id, class: cl, obj: obj, mb: newMailbox()}
	s.mu.Lock()
	switch {
	case s.closed():
		s.mu.Unlock()
		return 0, fmt.Errorf("rmi: machine %d is shut down", s.machine)
	case id == 0:
		s.nextID++
		s.total.Add(1)
		entry.id = s.nextID
	case s.objects[id] != nil:
		s.mu.Unlock()
		return 0, fmt.Errorf("rmi: object %d already live on machine %d", id, s.machine)
	}
	s.objects[entry.id] = entry
	s.publishObjects()
	s.mu.Unlock()

	// The object's process: a goroutine draining its mailbox.
	s.objWG.Add(1)
	go func() {
		defer s.objWG.Done()
		entry.mb.run()
	}()
	return entry.id, nil
}

// lookup finds a live object, removing it from the table when take is
// set (its mailbox is then the caller's to close). Only a take locks.
func (s *Server) lookup(id uint64, take bool) (*objEntry, error) {
	var entry *objEntry
	if take {
		s.mu.Lock()
		if entry = s.objects[id]; entry != nil {
			delete(s.objects, id)
			s.publishObjects()
		}
		s.mu.Unlock()
	} else {
		entry = (*s.table.Load())[id]
	}
	if entry == nil {
		return nil, fmt.Errorf("%w: machine %d object %d", ErrNoSuchObject, s.machine, id)
	}
	return entry, nil
}

// AddObject installs a locally-constructed object of the named class and
// returns its Ref. Used by persistence (process activation) and by tests.
func (s *Server) AddObject(class string, obj any) (Ref, error) {
	cl, ok := LookupClass(class)
	if !ok {
		return Ref{}, fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	id, err := s.adopt(cl, obj, 0)
	if err != nil {
		return Ref{}, err
	}
	return Ref{Machine: s.machine, Object: id, Class: class}, nil
}

// PutBack reinstalls an object previously removed with TakeObject under
// its original id — the rollback path for a failed passivation, so the
// remote pointers other processes hold stay valid.
func (s *Server) PutBack(id uint64, class string, obj any) error {
	cl, ok := LookupClass(class)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	_, err := s.adopt(cl, obj, id)
	return err
}

// TakeObject removes an object from the server *without* running its
// destructor and returns the instance. Used by persistence to passivate a
// process: the object leaves the live table, its goroutine stops, and its
// state is serialized by the caller.
func (s *Server) TakeObject(id uint64) (any, error) {
	entry, err := s.lookup(id, true)
	if err != nil {
		return nil, err
	}
	// Let queued work finish, then stop the process goroutine.
	done := make(chan struct{})
	if entry.mb.push(funcTask(func() { close(done) })) {
		<-done
	}
	entry.mb.close()
	return entry.obj, nil
}

// Object returns the live instance with the given id (used by tests and
// same-machine fast paths).
func (s *Server) Object(id uint64) (any, bool) {
	entry, err := s.lookup(id, false)
	if err != nil {
		return nil, false
	}
	return entry.obj, true
}

// handleCall routes one method invocation: a serial method (and the
// built-in ping, whose completion through the mailbox is the point) is
// queued for the object's process — or, when it may and the object is
// idle, run on the reader in the process's stead (runInline) — and a
// concurrent one gets its own goroutine so the object can accept peer
// pushes while busy in a long serial method. Decoder views (method, and
// the arguments a handler reads) stay valid until finish.
//
// A request dispatch let run on the reader does so when its method's
// record allows: not while the method is marked as calling back through
// its caller's client (callsOut), but for one request in callsOutRetry,
// and as a member of a reply group of several only if its last request
// here was quick — a method never seen here runs in its mailbox first —
// and the group's members have not yet used the reader's memberBudget.
// The object ping may always, a member within the budget.
func (s *Server) handleCall(t *callTask, objID uint64, method []byte, tc trace.SpanContext) {
	entry, err := s.lookup(objID, false)
	if err != nil {
		t.finish(err)
		return
	}
	t.entry = entry
	if string(method) != methodPing {
		me, ok := entry.class.lookupBytes(method)
		if !ok {
			t.finish(fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, entry.class.name, method))
			return
		}
		t.me = me
		t.env, t.span = s.callEnv(tc, func() string { return "serve " + me.full })
		if me.concurrent {
			s.objWG.Add(1)
			go func() {
				defer s.objWG.Done()
				t.run()
			}()
			return
		}
	}
	if r := t.inline; r != nil {
		var rec *methodRecord
		if t.me.fn != nil {
			rec = s.methodStats(&t.me)
		}
		may := rec == nil || rec.callsOut.Load() < callsOutMark || rec.callsOut.Add(-1) < callsOutMark
		if t.member {
			may = may && r.spent < memberBudget && (rec == nil || rec.quick.Load())
		}
		if may && entry.mb.claim() {
			t.stats = rec
			s.runInline(t, r)
			return
		}
	}
	if !entry.mb.push(t) {
		t.finish(fmt.Errorf("%w: machine %d object %d (terminated)", ErrNoSuchObject, s.machine, objID))
	}
}

// run is the record as a mailbox task (call).
func (t *callTask) run() { t.call() }

// call executes the method, its results appended straight to the
// outgoing frame, and finishes, returning finish's latency. The error is
// the method's own: the client's RemoteError names the class and method.
func (t *callTask) call() time.Duration {
	if t.me.fn == nil { // ping
		return t.finish(nil)
	}
	var err error
	if t.stats == nil {
		t.stats = t.s.methodStats(&t.me)
	}
	if t.deadline != 0 && time.Now().UnixNano() > t.deadline {
		err = errExpired
	} else {
		err = t.s.invoke(t.me.fn, t.env, t.entry, t.args, t.answer())
	}
	return t.finish(err)
}

// methodStats is me's record on this server, found by me.index in the
// published table. A method's first call here puts it in: under mu, into a
// copy that replaces the table.
func (s *Server) methodStats(me *methodEntry) *methodRecord {
	if tab := *s.stats.Load(); me.index < len(tab) && tab[me.index] != nil {
		return tab[me.index]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := *s.stats.Load()
	if me.index >= len(tab) || tab[me.index] == nil {
		next := make([]*methodRecord, max(len(tab), me.index+1))
		copy(next, tab)
		next[me.index] = &methodRecord{MethodStats: trace.MethodStats{Name: me.full}}
		s.stats.Store(&next)
		tab = next
	}
	return tab[me.index]
}

// invoke runs a method, converting panics into errors. env is the
// handler's environment — the per-call traced view when the request
// carried trace context, the machine's base environment otherwise.
func (s *Server) invoke(fn MethodFunc, env *Env, entry *objEntry, args *wire.Decoder, reply *wire.Encoder) (err error) {
	defer catch("method", &err)
	if err := fn(entry.obj, env, args, reply); err != nil {
		return err
	}
	if args.Err() != nil {
		return fmt.Errorf("argument decode: %w", args.Err())
	}
	return nil
}

// handleDelete takes the object out of the table and queues its
// destructor. Destructor semantics (§2): pending communications complete
// (they are ahead of us in the mailbox), the destructor runs, the process
// terminates.
func (s *Server) handleDelete(t *callTask, objID uint64) {
	entry, err := s.lookup(objID, true)
	if err != nil {
		t.finish(err)
		return
	}
	pushed := entry.mb.push(funcTask(func() { t.finish(s.destroyObject(entry)) }))
	entry.mb.close()
	if !pushed {
		t.finish(fmt.Errorf("%w: machine %d object %d (already terminating)", ErrNoSuchObject, s.machine, objID))
	}
}

func (s *Server) destroyObject(entry *objEntry) (err error) {
	defer catch("destructor", &err)
	if d, ok := entry.obj.(Destroyer); ok {
		return d.OnDestroy(s.env)
	}
	return nil
}

// debugSnapshot is the machine's introspection snapshot: its counters,
// the per-method telemetry registry, and the process span ring,
// JSON-encoded. The snapshot is self-describing (field names,
// sparse histogram buckets), so the debug plane never needs a protocol
// revision to grow a field.
func (s *Server) debugSnapshot() ([]byte, error) {
	var methods []*trace.MethodStats
	for _, rec := range *s.stats.Load() {
		if rec != nil {
			methods = append(methods, &rec.MethodStats)
		}
	}
	return json.Marshal(trace.Snapshot{
		Machine:  s.machine,
		Counters: s.counters.Snapshot(),
		Methods:  trace.SnapshotMethods(methods),
		Spans:    trace.Spans(),
	})
}
