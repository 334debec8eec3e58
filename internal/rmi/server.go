package rmi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

	// methods is the always-on per-method telemetry registry: one latency
	// histogram plus outcome counters per class.method, served raw by the
	// opDebug introspection op.
	methods trace.Methods

	mu       sync.Mutex
	objects  map[uint64]*objEntry
	nextID   uint64
	total    uint64
	closed   bool
	draining bool
	conns    map[transport.Conn]struct{}

	// Admission control state (see admission.go): per-class in-flight
	// caps and depths, guarded by mu; ewmaNs tracks recent service time
	// per class for the retry-after hint on rejections.
	admitCap   [NumPriorities]int
	admitDepth [NumPriorities]int
	ewmaNs     [NumPriorities]atomic.Int64

	// calls counts in-flight accepted work (constructions and method
	// calls, from acceptance to reply). Drain waits on it: once draining
	// is set no new work is accepted, so the counter only falls.
	calls sync.WaitGroup

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
		listener: l,
		objects:  make(map[uint64]*objEntry),
		conns:    make(map[transport.Conn]struct{}),
		admitCap: AdmissionConfig{}.resolve(),
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address clients dial.
func (s *Server) Addr() string { return s.listener.Addr() }

// Machine returns the machine index.
func (s *Server) Machine() int { return s.machine }

// Env returns the server's environment (for installing resources).
func (s *Server) Env() *Env { return s.env }

// NumObjects returns the number of live objects.
func (s *Server) NumObjects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
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
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.calls.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("rmi: machine %d drain: %w", s.machine, ctx.Err())
	}
}

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close shuts the server down: stop accepting, close connections,
// terminate every object process (running destructors), wait for
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	entries := make([]*objEntry, 0, len(s.objects))
	for _, e := range s.objects {
		entries = append(entries, e)
	}
	s.objects = make(map[uint64]*objEntry)
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
	objDone := make(chan struct{})
	go func() {
		s.objWG.Wait()
		close(objDone)
	}()
	select {
	case <-objDone:
	case <-time.After(closeGrace):
		// One or more object methods are blocked indefinitely; their
		// goroutines are abandoned (they exit if the method ever returns).
	}
	return nil
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
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
// goroutine.
func (s *Server) serveConn(conn transport.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(conn)
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		metrics.Default.MessagesRecv.Add(1)
		metrics.Default.BytesRecv.Add(int64(len(frame)))
		s.dispatch(conn, frame)
	}
}

// dispatch decodes one request frame and routes it. The pooled decoder
// owns the frame; whichever handler path consumes the arguments is
// responsible for releasing it once the handler is done.
//
// Admission runs before the op-specific header is decoded: for calls and
// constructions only the fixed-offset priority byte and the two leading
// varints have been read when a shed decision is made, so a saturated
// server spends near-zero work per rejected request. Pings, stats and
// deletes are control plane and bypass admission entirely (pings still
// observe draining, as before).
func (s *Server) dispatch(conn transport.Conn, frame []byte) {
	d := wire.GetFrameDecoder(frame)
	lead := d.Byte()
	prio := clampPriority(lead)
	reqID := d.Uvarint()
	op := d.Uvarint()
	if d.Err() != nil {
		// No usable request id: nothing sensible to reply to.
		d.Release()
		return
	}
	// The optional trace header sits between the op and the op-specific
	// header; decoding it is three fields, and only when the lead byte
	// announces one — untraced frames pay nothing here.
	tc := decodeTraceHeader(lead, d)
	switch op {
	case opPing:
		d.Release()
		if s.Draining() {
			s.reply(conn, reqID, nil, ErrDraining)
			return
		}
		s.reply(conn, reqID, nil, nil)
	case opStat:
		d.Release()
		e := wire.NewEncoder(16)
		s.mu.Lock()
		e.PutUvarint(uint64(len(s.objects)))
		e.PutUvarint(s.total)
		s.mu.Unlock()
		s.reply(conn, reqID, e, nil)
	case opDebug:
		// The debug plane bypasses admission like opStat: introspection
		// that goes dark under overload is useless exactly when needed.
		d.Release()
		s.replyDebug(conn, reqID)
	case opNew:
		if err := s.admit(prio); err != nil {
			d.Release()
			if tc.Sampled {
				trace.Emit(tc, s.machine, "shed new")
			}
			s.reply(conn, reqID, nil, err)
			return
		}
		start := time.Now()
		class := d.String()
		if d.Err() != nil {
			err := d.Err()
			d.Release()
			s.reply(conn, reqID, nil, err)
			s.release(prio, start)
			return
		}
		// Constructors may do arbitrary work (open devices, call other
		// machines), so they run on their own goroutine — this is the
		// birth of the new process.
		s.objWG.Add(1)
		go func() {
			defer s.objWG.Done()
			defer s.calls.Done()
			result, err := s.handleNew(class, d, tc)
			d.Release()
			s.freeSlot(prio, start)
			s.reply(conn, reqID, result, err)
		}()
	case opCall:
		if err := s.admit(prio); err != nil {
			d.Release()
			if tc.Sampled {
				trace.Emit(tc, s.machine, "shed call")
			}
			s.reply(conn, reqID, nil, err)
			return
		}
		start := time.Now()
		objID := d.Uvarint()
		method := d.StringBytes() // view: valid until d.Release
		deadline := d.Varint()    // absolute unix nanos; 0 = none
		if d.Err() != nil {
			err := d.Err()
			d.Release()
			s.reply(conn, reqID, nil, err)
			s.release(prio, start)
			return
		}
		s.handleCall(conn, reqID, objID, method, d, prio, start, deadline, tc)
	case opDelete:
		objID := d.Uvarint()
		err := d.Err()
		d.Release()
		if err != nil {
			s.reply(conn, reqID, nil, err)
			return
		}
		s.handleDelete(conn, reqID, objID)
	default:
		d.Release()
		s.reply(conn, reqID, nil, fmt.Errorf("rmi: unknown opcode %d", op))
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

// handleNew constructs and adopts an object of class, returning the
// reply payload (the new object id) or the error to send back.
func (s *Server) handleNew(class string, args *wire.Decoder, tc trace.SpanContext) (*wire.Encoder, error) {
	cl, ok := LookupClass(class)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	env, span := s.callEnv(tc, func() string { return "serve new " + class })
	obj, err := s.construct(cl, env, args)
	if err != nil {
		span.End(true)
		return nil, fmt.Errorf("constructing %s: %w", class, err)
	}
	id, err := s.adopt(cl, obj)
	span.End(err != nil)
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(16)
	e.PutUvarint(id)
	return e, nil
}

// construct runs a constructor, converting panics into errors: a buggy
// remote constructor must not take down the machine.
func (s *Server) construct(cl *ClassSpec, env *Env, args *wire.Decoder) (obj any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("constructor panic: %v", r)
		}
	}()
	return cl.ctor(env, args)
}

// adopt registers an already-built object and starts its process
// goroutine. It is also used directly (via Server.AddObject) for objects
// created server-side, e.g. reactivated persistent processes.
func (s *Server) adopt(cl *ClassSpec, obj any) (uint64, error) {
	entry := &objEntry{class: cl, obj: obj, mb: newMailbox()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("rmi: machine %d is shut down", s.machine)
	}
	s.nextID++
	s.total++
	entry.id = s.nextID
	s.objects[entry.id] = entry
	s.mu.Unlock()

	metrics.Default.ObjectsLive.Add(1)
	metrics.Default.ObjectsTotal.Add(1)

	// The object's process: a goroutine draining its mailbox.
	s.objWG.Add(1)
	go func() {
		defer s.objWG.Done()
		entry.mb.run()
	}()
	return entry.id, nil
}

// AddObject installs a locally-constructed object of the named class and
// returns its Ref. Used by persistence (process activation) and by tests.
func (s *Server) AddObject(class string, obj any) (Ref, error) {
	cl, ok := LookupClass(class)
	if !ok {
		return Ref{}, fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	id, err := s.adopt(cl, obj)
	if err != nil {
		return Ref{}, err
	}
	return Ref{Machine: s.machine, Object: id, Class: class}, nil
}

// TakeObject removes an object from the server *without* running its
// destructor and returns the instance. Used by persistence to passivate a
// process: the object leaves the live table, its goroutine stops, and its
// state is serialized by the caller.
func (s *Server) TakeObject(id uint64) (any, error) {
	s.mu.Lock()
	entry, ok := s.objects[id]
	if ok {
		delete(s.objects, id)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: machine %d object %d", ErrNoSuchObject, s.machine, id)
	}
	// Let queued work finish, then stop the process goroutine.
	done := make(chan struct{})
	if entry.mb.push(funcTask(func() { close(done) })) {
		<-done
	}
	entry.mb.close()
	metrics.Default.ObjectsLive.Add(-1)
	return entry.obj, nil
}

// PutBack reinstalls an object previously removed with TakeObject under
// its original id — the rollback path for a failed passivation, so the
// remote pointers other processes hold stay valid.
func (s *Server) PutBack(id uint64, class string, obj any) error {
	cl, ok := LookupClass(class)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchClass, class)
	}
	entry := &objEntry{id: id, class: cl, obj: obj, mb: newMailbox()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("rmi: machine %d is shut down", s.machine)
	}
	if _, exists := s.objects[id]; exists {
		s.mu.Unlock()
		return fmt.Errorf("rmi: object %d already live on machine %d", id, s.machine)
	}
	s.objects[id] = entry
	s.mu.Unlock()
	metrics.Default.ObjectsLive.Add(1)
	s.objWG.Add(1)
	go func() {
		defer s.objWG.Done()
		entry.mb.run()
	}()
	return nil
}

// Object returns the live instance with the given id (used by tests and
// same-machine fast paths).
func (s *Server) Object(id uint64) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	if !ok {
		return nil, false
	}
	return e.obj, true
}

// callTask is one method invocation queued for an object's process
// goroutine — the hot-path task shape. Tasks recycle through a pool, so a
// steady request stream enqueues, runs, and replies without allocating.
// A zero me.fn marks the built-in ping (reply OK, nothing to run).
type callTask struct {
	s        *Server
	conn     transport.Conn
	entry    *objEntry
	me       methodEntry
	args     *wire.Decoder // owns the request frame; nil for ping
	reqID    uint64
	prio     Priority  // admission class of the work token held
	start    time.Time // admission instant, for the service-time EWMA
	deadline int64     // client deadline, unix nanos (0 = none)

	env   *Env               // handler environment (per-call view when traced)
	span  *trace.Span        // server span of a sampled request; nil otherwise
	stats *trace.MethodStats // telemetry slot for me.full; nil for ping
}

var callTaskPool = sync.Pool{New: func() any { return new(callTask) }}

// run executes the method and sends the response as one pooled frame.
// The response header (reqID, statusOK) is encoded optimistically so
// method results append directly to the outgoing frame — no second
// assembly copy; on error the frame is rewritten as a statusErr reply.
func (t *callTask) run() {
	s := t.s
	reply := wire.GetEncoder(96)
	reply.PutUvarint(t.reqID)
	reply.PutUvarint(statusOK)
	var err error
	var expired bool
	if t.me.fn != nil {
		if t.deadline != 0 && time.Now().UnixNano() > t.deadline {
			// The client's deadline passed while the request sat in the
			// mailbox: nobody is waiting for the result, so executing it
			// would be pure waste. Shed with the same typed error the
			// client's own timer reports (errors.Is matches
			// context.DeadlineExceeded across the wire).
			metrics.Default.ReqExpired.Add(1)
			expired = true
			err = fmt.Errorf("expired before execution: %v", context.DeadlineExceeded)
		} else {
			metrics.Default.CallsServed.Add(1)
			err = s.invoke(t.me.fn, t.env, t.entry, t.args, reply)
		}
	}
	t.args.Release() // handler done: recycle the request frame
	if err != nil {
		reply.Reset()
		reply.PutUvarint(t.reqID)
		reply.PutUvarint(statusErr)
		reply.PutString(fmt.Sprintf("%s.%s: %v", t.entry.class.name, t.me.name, err))
	}
	frame := reply.Detach()
	wire.PutEncoder(reply)
	// The server's bookkeeping for this call is finished BEFORE the reply
	// goes on the wire, as for constructors: a client holding its reply
	// may pull the debug snapshot (which bypasses the mailbox) and must
	// find its own call's span and stats there, and its next request
	// must find the admission slot this one held free. Latency runs from
	// admission to the reply hand-off (queueing included — that is what
	// the caller experienced); the outcome is classified the same way the
	// local branch above decided.
	if t.stats != nil {
		t.stats.Hist.Observe(time.Since(t.start))
		switch {
		case expired:
			t.stats.Expired.Add(1)
		case err == nil:
			t.stats.OK.Add(1)
		case errors.Is(err, ErrFenced):
			t.stats.Fenced.Add(1)
		default:
			t.stats.Errs.Add(1)
		}
	}
	t.span.End(err != nil)
	s.freeSlot(t.prio, t.start)
	metrics.Default.MessagesSent.Add(1)
	metrics.Default.BytesSent.Add(int64(len(frame)))
	// Best effort: if the connection died the client sees ErrClosed.
	_ = t.conn.Send(frame)
	*t = callTask{}
	callTaskPool.Put(t)
	// The drain token taken at acceptance (admit) is retired only after
	// the reply is on the wire: Drain returning means every accepted call
	// has answered.
	s.calls.Done()
}

// handleCall routes one method invocation. It takes ownership of args
// (and the frame under it); every path releases it exactly once — for
// dispatched calls, inside callTask.run after the method returns, which
// is what makes passing decoder views into handlers safe. It also owns
// the admission work token taken in dispatch: tasks that reach run()
// release it there, every early-exit path releases it here.
func (s *Server) handleCall(conn transport.Conn, reqID uint64, objID uint64, method []byte, args *wire.Decoder, prio Priority, start time.Time, deadline int64, tc trace.SpanContext) {
	s.mu.Lock()
	entry, ok := s.objects[objID]
	s.mu.Unlock()
	if !ok {
		args.Release()
		s.reply(conn, reqID, nil, fmt.Errorf("%w: machine %d object %d", ErrNoSuchObject, s.machine, objID))
		s.release(prio, start)
		return
	}

	t := callTaskPool.Get().(*callTask)
	t.s, t.conn, t.entry, t.reqID, t.prio, t.start = s, conn, entry, reqID, prio, start
	t.deadline = deadline

	// Built-in methods first: the ping task carries no method and no
	// arguments, its completion through the mailbox is the point.
	if string(method) == methodPing {
		args.Release()
		t.me, t.args, t.env = methodEntry{}, nil, s.env
		if !entry.mb.push(t) {
			*t = callTask{}
			callTaskPool.Put(t)
			s.reply(conn, reqID, nil, fmt.Errorf("%w: machine %d object %d (terminated)", ErrNoSuchObject, s.machine, objID))
			s.release(prio, start)
		}
		return
	}

	me, ok := entry.class.lookupBytes(method)
	if !ok {
		// Format the error while `method` (a view of the request frame) is
		// still valid, then release the frame.
		err := fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, entry.class.name, method)
		args.Release()
		*t = callTask{}
		callTaskPool.Put(t)
		s.reply(conn, reqID, nil, err)
		s.release(prio, start)
		return
	}
	t.me, t.args = me, args
	t.stats = s.methods.Get(me.full)
	t.env, t.span = s.callEnv(tc, func() string { return "serve " + me.full })

	if me.concurrent {
		// Concurrent method: runs outside the mailbox so the object can
		// accept peer pushes while busy in a long serial method.
		s.objWG.Add(1)
		go func() {
			defer s.objWG.Done()
			t.run()
		}()
		return
	}
	if !entry.mb.push(t) {
		args.Release()
		t.span.End(true)
		*t = callTask{}
		callTaskPool.Put(t)
		s.reply(conn, reqID, nil, fmt.Errorf("%w: machine %d object %d (terminated)", ErrNoSuchObject, s.machine, objID))
		s.release(prio, start)
	}
}

// invoke runs a method, converting panics into errors. env is the
// handler's environment — the per-call traced view when the request
// carried trace context, the machine's base environment otherwise.
func (s *Server) invoke(fn MethodFunc, env *Env, entry *objEntry, args *wire.Decoder, reply *wire.Encoder) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("method panic: %v", r)
		}
	}()
	if err := fn(entry.obj, env, args, reply); err != nil {
		return err
	}
	if args.Err() != nil {
		return fmt.Errorf("argument decode: %w", args.Err())
	}
	return nil
}

func (s *Server) handleDelete(conn transport.Conn, reqID uint64, objID uint64) {
	s.mu.Lock()
	entry, ok := s.objects[objID]
	if ok {
		delete(s.objects, objID)
	}
	s.mu.Unlock()
	if !ok {
		s.reply(conn, reqID, nil, fmt.Errorf("%w: machine %d object %d", ErrNoSuchObject, s.machine, objID))
		return
	}
	// Destructor semantics (§2): pending communications complete (they are
	// ahead of us in the mailbox), the destructor runs, the process
	// terminates.
	pushed := entry.mb.push(funcTask(func() {
		err := s.destroyObject(entry)
		s.reply(conn, reqID, nil, err)
	}))
	entry.mb.close()
	if !pushed {
		s.reply(conn, reqID, nil, fmt.Errorf("%w: machine %d object %d (already terminating)", ErrNoSuchObject, s.machine, objID))
	}
}

func (s *Server) destroyObject(entry *objEntry) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("destructor panic: %v", r)
		}
	}()
	metrics.Default.ObjectsLive.Add(-1)
	if d, ok := entry.obj.(Destroyer); ok {
		return d.OnDestroy(s.env)
	}
	return nil
}

// reply sends a response frame on the cold paths (constructions, errors,
// server pings); method calls reply inside callTask.run. result may be
// nil (empty payload).
func (s *Server) reply(conn transport.Conn, reqID uint64, result *wire.Encoder, err error) {
	size := 32
	if result != nil {
		size += result.Len()
	}
	e := wire.GetEncoder(size)
	e.PutUvarint(reqID)
	if err != nil {
		e.PutUvarint(statusErr)
		e.PutString(err.Error())
	} else {
		e.PutUvarint(statusOK)
		if result != nil {
			e.AppendRaw(result.Bytes())
		}
	}
	frame := e.Detach()
	wire.PutEncoder(e)
	metrics.Default.MessagesSent.Add(1)
	metrics.Default.BytesSent.Add(int64(len(frame)))
	// Best effort: if the connection died the client sees ErrClosed.
	_ = conn.Send(frame)
}

// replyDebug answers an opDebug request with the machine's introspection
// snapshot: the per-method telemetry registry, the admission shed count,
// and the process span ring, JSON-encoded. The snapshot is
// self-describing (field names, sparse histogram buckets), so the debug
// plane never needs a protocol revision to grow a field.
func (s *Server) replyDebug(conn transport.Conn, reqID uint64) {
	snap := trace.Snapshot{
		Machine: s.machine,
		Shed:    metrics.Default.ReqShed.Load(),
		Methods: s.methods.Snapshot(),
		Spans:   trace.Spans(),
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		s.reply(conn, reqID, nil, err)
		return
	}
	e := wire.NewEncoder(len(buf) + 8)
	e.PutBytes(buf)
	s.reply(conn, reqID, e, nil)
}
