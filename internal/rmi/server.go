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
	// introspection op. stats is the always-on per-method part: one
	// latency histogram plus outcome counters per class.method, indexed by
	// methodEntry.index, in a published table that is never written, which
	// methodStats replaces, under mu, on a method's first call here.
	// counters is the machine's counters (Env.Counters), which Close
	// closes: the replies sent and the requests admission shed count
	// there; the requests that expired are the methods' Expired.
	stats    atomic.Pointer[[]*trace.MethodStats]
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
	// readers): Close always drains these. objWG tracks object work
	// (process goroutines, constructors, concurrent methods): Close waits
	// for these only up to closeGrace, because a method blocked forever
	// inside an object cannot be preempted — like a real process ignoring
	// SIGTERM — and must not wedge machine shutdown.
	connWG sync.WaitGroup
	objWG  sync.WaitGroup
}

// closeGrace bounds how long Close waits for object goroutines to finish
// their queued work (including destructors).
const closeGrace = 2 * time.Second

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
	s.stats.Store(new([]*trace.MethodStats))
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
		go s.serveConn(conn)
	}
}

func (s *Server) dropConn(conn transport.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// serveConn is the per-connection read loop. It must never block on object
// work: serial calls are enqueued, everything long-running gets its own
// goroutine. It keeps the connection's open reply group, which the end of
// the connection closes: the replies gathered in it still leave (or fail
// to) and retire their drain tokens.
func (s *Server) serveConn(conn transport.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(conn)
	var open *replyGroup
	for {
		frame, err := conn.Recv()
		if err != nil {
			open.close()
			return
		}
		open = s.dispatch(conn, frame, open)
	}
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

	env   *Env               // handler environment (per-call view when traced)
	span  *trace.Span        // server span of a sampled request; nil otherwise
	stats *trace.MethodStats // telemetry slot of a method that reached run
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

// dispatch decodes one request frame into a record, files it into the
// connection's reply grouping — open is the group open before the frame
// (nil: none), and the one open after it is returned — and routes it. The
// record owns the pooled decoder and the frame under it until finish.
func (s *Server) dispatch(conn transport.Conn, frame []byte, open *replyGroup) *replyGroup {
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
	if open == nil {
		open = replyGroupPool.Get().(*replyGroup)
		open.s, open.conn = s, conn
	}
	marked := lead&leadGroupFlag != 0
	open.mu.Lock()
	open.pending++
	open.closed = !marked
	open.mu.Unlock()
	t := callTaskPool.Get().(*callTask)
	t.s, t.conn, t.reqID, t.args, t.group = s, conn, reqID, d, open
	s.route(t, lead, op)
	if !marked {
		return nil // the group is closed, and may be answered already
	}
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
func (t *callTask) finish(err error) {
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
// as t's answer, or returns the error to send back.
func (s *Server) handleNew(t *callTask, class string, tc trace.SpanContext) error {
	cl, ok := LookupClass(class)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	var env *Env
	env, t.span = s.callEnv(tc, func() string { return "serve new " + class })
	obj, err := s.construct(cl, env, t.args)
	if err != nil {
		return fmt.Errorf("constructing %s: %w", class, err)
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
// queued for the object's process, a concurrent one gets its own
// goroutine so the object can accept peer pushes while busy in a long
// serial method. Decoder views (method, and the arguments a handler
// reads) stay valid until finish.
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
	if !entry.mb.push(t) {
		t.finish(fmt.Errorf("%w: machine %d object %d (terminated)", ErrNoSuchObject, s.machine, objID))
	}
}

// run is the record as a mailbox task: execute the method, its results
// appended straight to the outgoing frame, and finish.
func (t *callTask) run() {
	if t.me.fn == nil { // ping
		t.finish(nil)
		return
	}
	var err error
	t.stats = t.s.methodStats(&t.me)
	if t.deadline != 0 && time.Now().UnixNano() > t.deadline {
		err = errExpired
	} else {
		err = t.s.invoke(t.me.fn, t.env, t.entry, t.args, t.answer())
	}
	if err != nil {
		err = fmt.Errorf("%s.%s: %w", t.entry.class.name, t.me.name, err)
	}
	t.finish(err)
}

// methodStats is me's telemetry entry on this server, found by me.index in
// the published table. A method's first call here puts it in: under mu,
// into a copy that replaces the table.
func (s *Server) methodStats(me *methodEntry) *trace.MethodStats {
	if tab := *s.stats.Load(); me.index < len(tab) && tab[me.index] != nil {
		return tab[me.index]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := *s.stats.Load()
	if me.index >= len(tab) || tab[me.index] == nil {
		next := make([]*trace.MethodStats, max(len(tab), me.index+1))
		copy(next, tab)
		next[me.index] = &trace.MethodStats{Name: me.full}
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
	return json.Marshal(trace.Snapshot{
		Machine:  s.machine,
		Counters: s.counters.Snapshot(),
		Methods:  trace.SnapshotMethods(*s.stats.Load()),
		Spans:    trace.Spans(),
	})
}
