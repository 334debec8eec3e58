// Package rmi is the OOPP runtime: it implements the paper's central idea
// that programming objects are processes, behind a typed, context-aware
// remote-method-invocation surface.
//
// # Model
//
// A remote object lives on a machine, inside that machine's Server. It is
// created with New (the paper's "new(machine k) T(args)"), invoked through
// a remote pointer (Ref) with Call, and terminated with Delete (the
// paper's destructor semantics: "destruction of a remote object causes
// termination of the remote process").
//
// Faithful to the paper, every object *is* a process: construction spawns
// a dedicated goroutine with a FIFO mailbox; method invocations on the
// object execute one at a time, in arrival order, on that goroutine.
// Distinct objects run concurrently. The process may lend its turn: a
// synchronous call whose caller waits for it (the lead byte's waited bit)
// and finds the object idle — nothing queued, nothing running — runs on
// the reader of the connection it came in on, and the process runs
// nothing until it has answered. Order and mutual exclusion are the
// mailbox's all the same; what the loan saves is goroutine hand-offs.
//
// # The typed surface
//
// The paper assumes the invocation protocol is generated by a compiler
// from the class declaration. Here Go generics play that role:
//
//	type counter struct{ n int }
//
//	var counterClass = rmi.RegisterClass("app.Counter", wire.Int,
//	        func(env *rmi.Env, start int) (*counter, error) { ... })
//	var counterAdd = rmi.DeclareOp(counterClass, "add", wire.Int, wire.Int,
//	        func(c *counter, env *rmi.Env, d int) (int, error) { ... })
//
//	ref, _ := counterClass.New(ctx, client, m, 100) // new(machine m) Counter(100)
//	n, _ := counterAdd.Call(ctx, client, ref, 23)   // the declared method, by its handle
//
// RegisterClass declares a class from the codec of its constructor's
// argument and returns a Class[T, C] handle: server-side method bodies
// receive the object already asserted to T, the server decodes the whole
// argument before the constructor runs, and client-side construction goes
// through the handle (Class[T, C].New, or collection.SpawnClass, with a
// C that the same codec encodes). DeclareOp declares a method from the codecs (wire.Codec) of its
// argument and its result and a body over decoded values, and returns
// its Op handle, the one value its server body and its callers name: the
// server decodes the whole argument before the body runs, and Op.Call and
// Op.CallAsync (whose TypedFuture decodes the result) encode and decode
// through the same two codecs, so the two halves of the call cannot
// disagree. Stubs, peers and fan-outs call through the handle, or pass
// its Name to the by-name surfaces (Client.Call, FanOut, the collection
// collectives, which take PutArgs for the argument), so a renamed method
// is a compile error and one that nothing calls is a handle nothing
// references, which the module's exports check reports. The wire carries
// the method's name, as a call by name does. ExtendClass renders the
// paper's process inheritance (§3): the derived class inherits the base
// method table under its own Go type, and answers the base's handles.
//
// The bulk methods, whose frames borrow or lend their values (page reads
// and writes, kernel batches, transpose pieces), are declared with
// Class[T, C].Declare instead: their bodies read and write the packed wire
// encodings themselves, and their Method handles take hand-written
// ArgEncoder closures, so that no codec stands between the frame and the
// page.
//
// # Contexts and call options
//
// Every operation takes a context.Context: it governs dialing and
// sending, and cancellation aborts an in-flight call promptly — the
// pending request is unregistered, the future fails with an error
// wrapping ctx.Err(), and the late response is dropped and counted
// (metrics.Registry.RespOrphaned in the client's registry; unparseable
// response headers count as RespDropped). Variadic CallOptions carry per-call policy: WithTimeout/
// WithDeadline arm a deadline that travels with the future (so a §4
// send-loop can stamp deadlines on calls it waits on much later),
// WithRetryDial retries failed dials (never requests), and WithLabel
// attaches a trace label that appears in failure text.
//
// # Sequential semantics and the §4 transformation
//
// Call is synchronous: it returns only when the remote method has executed
// and its results have arrived, matching §2 ("each instruction, and all
// communications associated with it, is completed before the following
// instruction is executed"). CallAsync returns a Future immediately; the
// paper's compiler transformation that splits a loop of remote calls into
// a send-loop and a receive-loop is exactly
//
//	futs := make([]*rmi.Future, n)
//	for i := range devs { futs[i] = read.CallAsync(ctx, client, devs[i], ...) } // send loop
//	for i := range futs { futs[i].Wait(ctx) }                                   // receive loop
//
// The two are one request with the wait moved, and the client has one
// path for it (client.go): every operation — New, Call, CallAsync,
// Delete, Ping, Stat, Debug — is a request value that encode writes (the
// only writer of a request frame: lead byte, request id, opcode, trace
// header, op header, arguments) and send puts on the wire, in one order:
// encode → arm the per-call timer → context check → dial → register →
// bind → write. An argument encoder that fails therefore never dials; the
// client span of a traced operation covers the dial; WithTimeout bounds
// the dial and the wait with one budget. A request leaves one way, and
// that way ends in the one place that writes to a connection
// (clientConn.write): at once — or, if it is one of a collective's issue
// burst (everything on SplitLoop through FanOut, SpawnRefs, BarrierRefs,
// DeleteRefs), held on its connection in a transport.Burst, registered and
// bound like a sent one, until the send loop flushes it before its first
// wait: one SendBurst per machine, cut out of one read on the far side.
// Whoever writes to a connection writes what is held on it first, so issue
// order per (connection, object) holds, a synchronous Call from inside an
// issue step included. A frame is held only while the burst has room for
// another in what the far side reads at once: a page goes out at once and
// takes what was held with it. A failed flush answers every held request
// with the *MachineDownError a failed send has always had; a timer or
// context that fires on a held request abandons it like a sent one. Nothing
// is held outside a collective: issue, compute, then wait — the overlap
// the paper's transformation is for — depends on a lone CallAsync leaving
// before it returns.
//
// The replies come back the same way. A request's reply group is decided
// by one rule (inBurst): a request with a deadline joins none, so its
// timeout fails it alone; each member of a spawn whose caller can give up
// is its own; any other member joins its collective's. A frame whose
// successor in the write is of its group carries the reply-group bit
// (leadGroupFlag). The server gathers the replies of such a run — the
// marked requests and the first unmarked one after them — in a replyGroup
// (server.go), which the member that answers last writes with one
// SendBurst before it retires their drain tokens; every other request is a
// group of one, so a reply leaves the server one way. A reply may wait for
// its siblings, never for another collective's nor for a request that is
// never held; the collective waits for every member anyway. A reply after
// which the group has no room for another leaves at once with those
// gathered before it; a frame dropped as undecodable, and the end of the
// connection, close the group. A member whose method is quick runs on the
// reader that read it (below), so a collective's share of one machine runs
// in the read it came in, with no wake of the objects' goroutines.
//
// A frame over 64 MiB fails its own request and nothing else, on every
// transport: the burst refuses it with transport.ErrFrameTooLarge. A
// request too long fails at once, and its connection goes on; a reply too
// long is answered with an error reply that errors.Is matches to
// transport.ErrFrameTooLarge, and its siblings leave as usual. Neither is
// ErrMachineDown.
//
// What differs is only how the
// response is waited for, and there are two ways. The asynchronous forms
// (CallAsync, NewAsync — both return a Future that has failed already if
// the request could not leave — and everything built on them) complete a
// Future; Call completes a pooled waiter, because a Future and its
// channel are two allocations a call and the pooled waiter is none. Both
// embed one call site (machine, class, method, label, span), so error
// text and RemoteError metadata cannot differ between them.
//
// # Classes and the "compiler-generated" protocol
//
// A class registers, once, a constructor and a method table (RegisterClass
// for the typed form, Register for the untyped ClassSpec form used by
// dynamic code); the registered codecs and the typed client stubs in the
// substrate packages are precisely the code a compiler would emit from
// the class declaration.
//
// Methods are serial by default (mailbox order). A method may instead be
// registered as concurrent: it runs outside the object's mailbox and the
// object must synchronize its own state. This is required for
// peer-to-peer exchange patterns (the §4 FFT transpose) where two objects
// are simultaneously inside long-running methods and must still accept
// data pushes from each other; with pure mailbox serialization such
// exchanges deadlock.
//
// # Collectives
//
// The paper's arrays of processes ("FFT * fft[N]") and the compiler-
// supported barrier it proposes ("fft->barrier()") are the collective
// fan-out engine (fanout.go): FanOut/SpawnRefs/BarrierRefs/DeleteRefs
// issue member operations over a []Ref concurrently through the async
// lanes with a bounded in-flight window (DefaultWindow) and report
// errors.Join of all member failures, each wrapped in a MemberError
// carrying the member index. BarrierRefs sends a no-op message through
// every member's mailbox, so its completion proves every earlier
// message has been processed.
//
// Under FanOut sits SplitLoop, the paper's §4 transformation as a
// function: issue(i) runs in index order while fewer than window futures
// are outstanding, settle(i, f) consumes them in index order, and a
// settle error stops issuing and drains every outstanding future.
// A burst — the futures one pass of the issue loop started — ends where
// that pass ends: what it held on its connections is flushed there,
// before the settle that follows, so at window w a collective of n
// members is a burst of w and then n−w bursts of one.
// Window 1 is the sequential §2 loop. FanOut is SplitLoop with a settle
// that records member failures and never stops; SpawnRefs is SplitLoop
// with an issue that stops constructing once a member has failed or the
// caller has given up, and a settle that drains what was issued so that
// every constructed member can be deleted; every element transfer of
// core.Array is SplitLoop at the array's window. How a client bounds and
// settles outstanding requests is decided there and nowhere else.
//
// User code holds members as internal/collection's Collection[T], built
// on this engine (collection.FromRefs wraps refs obtained elsewhere).
// The untyped Group adapter that used to sit beside it is deleted; the
// root package doc's migration table maps its surface over.
//
// Buffer ownership in collectives follows the rules below: the decoder a
// CallAll collector or Reduce decoder receives owns a pooled response
// frame that is recycled the moment the callback returns — decode by
// value, or copy views that must outlive the call.
//
// The ArrayPageDevice class registers six methods of its own (plus the
// inherited PageDevice and fence protocols). One of them is the kernel
// engine: every array collective — fill, scale, sum, minmax, dot, axpy,
// user kernels, fused pipelines, whole-storage fills and sums — and every
// page copy (failover re-seeds, migrations) and one-page Sum or FillPage
// is a stage chain carried inline by applyPipelineK, so the per-method
// telemetry of all of them appears under
// ArrayPageDevice.applyPipelineK (sampled spans keep the client-side
// entry-point names kernel.apply / kernel.reduce / kernel.pipeline):
//
//	method                                    role                               class
//	----------------------------------------  ---------------------------------  ----------
//	applyPipelineK(chain, peers, regions)     the one kernel executor            serial
//	readSubBatch(regions)                     peer operand and halo pulls        CONCURRENT
//	jacobiPlane(...)                          owner Jacobi sweep                 serial
//	readArray, writeArray, writeSub           the Array read/write path          serial
//
// The concurrency column is the point: readSubBatch executes outside
// the object mailbox (reading each page under its disk's contents lock,
// which a serial method holds only for one page's chain, never across
// a pull), so a device that is itself inside a serial sweep still
// serves its neighbours' halo and operand pulls — the same escape hatch
// the §4 FFT transpose needs, now load-bearing for every device-to-
// device kernel pull. Serial kernel methods keep the mailbox atomicity
// guarantee: a batched read-modify-write of partial pages cannot lose
// updates to concurrent clients.
//
// The single concurrent lane is also what makes ASYNC overlap safe.
// jacobiPlane posts its halo pulls with CallAsync and sweeps interior
// planes while they fly, and applyPipelineK pulls two-operand-stage
// regions mid-chain — both are serial methods issuing reads AGAINST
// peers' concurrent lane while holding their own mailbox. That cannot
// deadlock, in any cycle of devices, because serving readSubBatch
// never requires the peer's mailbox: every device in a cycle of
// mutual halo pulls is simultaneously inside its serial sweep and
// still answering the others. The discipline to keep: a serial pagedev
// method may wait on a peer's CONCURRENT method, never on a peer's
// serial one.
//
// # Connections, reconnection, and failure detection
//
// A Client keeps one multiplexed connection per machine. Connection
// lifecycle is automatic:
//
//   - Death and eviction. When whoever reads a connection — its receive
//     loop, or a caller reading its own reply — sees the link die, or a
//     send on it fails, every call pending on it fails with a
//     *MachineDownError (errors.Is(err, ErrMachineDown)) naming the
//     machine and cause, and the connection is evicted from the cache —
//     the next operation to that machine redials. Nobody reads a
//     connection with nothing pending whose last reply went to a caller
//     that read it itself, so the next operation on it first looks,
//     without waiting, whether the peer has closed it meanwhile
//     (transport.PeerClosed) and if so evicts it and redials. A dropped
//     link therefore never strands a machine; a server restart heals on
//     the next call.
//   - Exponential dial backoff. Dial retries (WithRetryDial) back off
//     exponentially, seeded by the machine's persistent failure streak,
//     so a dead machine is probed progressively less aggressively while
//     the call's context still bounds the total wait. Dial exhaustion is
//     itself a *MachineDownError.
//   - Heartbeats. Client.StartHeartbeat runs a failure detector: it
//     pings machines every Interval and declares a machine down after
//     Misses consecutive failures. A crashed machine's pending calls
//     fail typed, its connection closes, and new calls fail fast with
//     the recorded ErrMachineDown (no per-call timeout burn) until a
//     probe succeeds again — recovery marks the machine up and traffic
//     resumes over a fresh connection. A machine failing probes with
//     ErrDraining is leaving, not crashed: its connection stays open so
//     already-accepted calls deliver their replies, and refusals of new
//     work come typed from the server itself while the link lives.
//     Probes (WithProbe — heartbeat pings, cluster.WaitReady) are the
//     revival path: they may dial a down machine, and success clears
//     the verdict even after the detector stopped. OnDown/OnUp callbacks
//     observe transitions; Client.MachineDown reports a current verdict.
//
// Collectives compose with detection: a broadcast over a collection
// with a dead machine still reaches every live member, and the joined
// error carries one MemberError per dead member wrapping ErrMachineDown
// — each MemberError names its member, and
// collection.FailedMachines(err) lists the machines. A remote pointer is
// bound to the process that minted it: a machine that comes back is a
// new address space, and calls against pre-restart refs report
// ErrNoSuchObject. Surviving a kill therefore means holding the state
// somewhere else before it dies — that is the layer above this package.
// core's replicated arrays keep every page on k devices and, on a down
// verdict, promote surviving replicas and re-mint the page map so
// traffic addresses only live machines (Array.Failover); persist-backed
// checkpoints (core.CheckpointArray/RecoverArray) reconstruct
// unreplicated state as fresh processes from a store. Both paths mint
// new refs — nothing revives the old ones.
//
// On the server side, Server.Drain is the graceful half of shutdown:
// in-flight calls (anything already accepted) run to completion and
// reply, while new constructions, calls, and pings are refused with
// ErrDraining — a typed RemoteError, so clients and failure detectors
// can tell an orderly departure from a crash. Stats and deletes keep
// working during the drain window. A Drain whose context ends first
// returns its error and leaves nothing behind: it waits on a channel the
// last accepted request's answer closes, not on a goroutine of its own.
// Drain then Close is the SIGTERM path of cmd/oppcluster and the e2e
// server processes.
//
// # Priorities and admission control
//
// Every request frame leads with a one-byte lead (the priority class
// plus a trace-presence bit), ahead of the request id and opcode:
//
//	lead(1) | reqID(uvarint) | op(uvarint) | [trace header] | op-specific...
//	lead = prio | 0x40 when the reply may wait for the next request's (reply group)
//	            | 0x80 when a trace header follows
//	trace header = traceID(uvarint) | spanID(uvarint) | flags(1, bit0=sampled)
//
// Placing the lead first is the point: the server classifies a request
// by reading a single byte, before decoding — and in particular before
// touching — anything else, so shedding load costs almost nothing.
// The trace header is strictly optional and version-tolerant both
// ways: a frame without the flag decodes exactly as before (untraced),
// and a server that predates tracing clamps the unknown lead bit away
// and still classifies correctly. When present, the header carries the
// distributed-trace context (see the root doc's Observability
// chapter): the server restores it into the handler's Env.Ctx(), so
// peer calls made through Env.Client extend the same trace, and the
// sampled bit decides whether spans are captured — an unsampled header
// propagates ids and records nothing.
//
// On the server every decoded frame is one pooled record (callTask) from
// dispatch to its answer, whatever the operation: New, Call, the object
// ping, Delete, and the control operations Ping, Stat and Debug differ
// only in what runs in between (a constructor on its own goroutine, a
// method through the object's mailbox or beside it when concurrent, a
// destructor as the mailbox's last task, the control operations inline).
// Two kinds of request run on the connection's reader goroutine in the
// object's stead when the object is idle (Server.runInline): a waited call
// of a serial method, alone in its reply group, and a member of a reply
// group of several — a collective's request that is marked or closes an
// open group — calling a serial method or the object ping. The object
// stays claimed until finish has written the reply, or added it to its
// group, and run its giveBack. A member runs there only if its method is
// quick: its last request on this server took under inlineQuick (next to
// inlineTick), read off the clock finish already reads, in the method's
// one record per server (methodRecord, beside its telemetry). A method
// never seen on the server runs in its mailbox first. And it runs there
// only while the members of its group have spent less than memberBudget on
// that reader: the rest go to their mailboxes and run in parallel. The
// budget is set from BenchmarkFanOutSpinTCP: a group within it saves its
// wakes, and one past it costs about a wake more than in the mailboxes. A method that blocks there
// holds up its connection for at most a tick or two: a watchdog, armed by
// a reader's first inline run since its last tick and disarmed at the
// first tick that finds none, looks only at those readers, and hands the
// connection of one that has spent a whole tick (inlineTick, next to
// closeGrace) in one method to a fresh reader, which carries on the reply
// group open after that method's request, so the members behind it join
// the group it joined; the stuck goroutine finishes its method as object
// work (objWG, which Close waits for only up to closeGrace). A client of
// the same process that sends a request on a connection behind a waited
// one, or behind the unanswered members of a reply group, does not wait
// for the tick: it hands that connection to a fresh reader at once
// (handOffRun), for the method may be what sent it — calling back through
// the client that called it. A method whose runs on the reader are handed
// off so twice in a row is marked, and runs in its mailbox, waited or
// not, but for one request in 64 that looks again; a run that returns on
// its reader clears the count. So a request that another goroutine of the
// client sent during the run by chance marks nothing for long. The
// watchdog's tick counts nothing, for a method may be slow only once. No
// timer is touched per call.
// The record ends in exactly one finish(err), the only place a reply
// frame is completed, and it gives things back in one order: the request
// frame; then the bookkeeping — per-method stats, span, and the admission
// slot the request held — BEFORE the reply is sent, so a client holding a
// reply (an error reply included) can pull the debug snapshot, which
// bypasses the mailbox, and is guaranteed to find its own call there, and
// neither its next request nor QueueDepths, on this connection or another,
// meets the slot of a request already answered; then the record to its
// pool; and last its one exit, the reply group, which counts and sends the
// reply with its siblings' and retires the drain tokens AFTER that write,
// so Drain returning means every accepted request's reply is on the wire.
// The admission class is the lead byte's low two bits: the three flags
// (trace, reply group, waited) are masked off before it is read.
// Three classes exist: PrioHigh (control traffic; Ping, Stat, and
// Delete default here), PrioNormal (Call and New), and PrioBulk
// (background work; opt in with WithPriority, per call or baked into a
// serve.Session's defaults). Unknown priority bytes clamp to normal.
//
// The queue model: admission is a per-class bound on *in-flight*
// requests — everything between admission and the reply send,
// including work parked in object mailboxes, not just actively
// executing methods. That is deliberate: mailbox pushes never block,
// so without admission a slow object grows its mailbox without bound
// while every caller burns its timeout. With admission
// (Server.SetAdmission / AdmissionConfig; capacity 0 selects the class
// default, negative means unbounded), a
// request beyond its class's capacity fails immediately with
// *OverloadedError — carrying the machine, the saturated class, its
// queue depth, and a retry-after hint estimated from an EWMA of
// observed service times (RetryAfter extracts it, from the local typed
// error or from the RemoteError text a wire crossing produces).
// Ping, Stat, and Delete bypass admission entirely: probes and
// teardown must work on a saturated machine.
//
// The classes are independent bulkheads: a full normal class does not
// delay high-priority traffic, so heartbeats never declare a merely
// busy machine down; and admission is checked only after the
// draining/closed states, so ErrOverloaded never masks ErrDraining.
// Admission takes no server lock, so connections served on different
// processors never wait for each other to be admitted: draining or
// closed is one atomic word, read first; a class's depth is raised by a
// compare-and-swap below its cap, so the cap holds however many admit at
// once; and the drain token is an atomic count that refuses to rise
// from zero, so nothing is admitted after a Drain has returned. Sheds
// count once, in the machine's registry (Env.Counters, ReqShed), which
// the machine's debug snapshot carries and cmd/opptrace tabulates per
// machine; the per-class depths are Server.QueueDepths.
// The serve package builds the client half — session multiplexing over
// bounded connection pools and the open-loop load harness — on this
// contract.
//
// # Performance and buffer ownership
//
// The request/response round trip is allocation-free in steady state.
// Request frames are built in pooled encoders (wire.GetEncoder) by the
// one encode and handed by the one send to the transport, which takes
// ownership (inproc forwards the very slice; tcp joins it with the rest of
// its burst, or writes a long one vectored, and recycles it). The frames a
// collective holds wait in a transport.Burst the connection keeps, and
// every reply in the transport.Burst of a pooled reply group, so a steady
// stream of calls and collectives allocates nothing for either.
// Responses arrive in pooled frames wrapped by pooled
// decoders. The two ways to wait are where the cost differs: a
// synchronous Call completes through a pooled, reusable waiter and
// allocates nothing; an asynchronous operation completes a Future, which
// is two allocations (the Future and its channel; an args closure that
// captures is a third) — TestSyncCallSteadyStateAllocs holds both
// numbers. Server side, a request's record is the mailbox task, and the
// reply encoder is taken when the answer is written — header first, so
// results are appended once, to the frame that leaves; a request waiting
// in a mailbox holds no buffer.
//
// A synchronous call is one ping-pong, with no goroutine hand-off on
// either side, when nothing but its reply can end it (no cancelable
// context, no WithTimeout) and its connection has nothing else in flight:
// the caller marks its frame waited, writes it, and reads the connection
// itself until its reply comes (clientConn.readOwn), handing any other
// caller's reply on as the receive loop would; the server's reader runs
// the method on an idle object itself, and writes the reply. A call
// through the mailbox crosses two goroutines: the reader hands the
// request to the object's process, and the client's receive loop hands
// the reply to the caller. The receive loop reads while no caller reads
// its own reply and something is pending, or the last reply was for a
// caller that did not ask to read its own (an asynchronous one, or one
// with a cancelable context or a WithTimeout): after one that did ask it
// parks, and is woken when a request is registered with nobody reading.
// So the first such call after other traffic goes through the loop, and
// the ones after it read their own.
//
// A method may lend its reply's tail instead of packing it: values that
// end the reply and stay put until it has left
// (wire.Encoder.BorrowFloat64s, with a giveBack). The reply then leaves as
// a transport.Frame whose tail is those values, written from where they
// lie on tcp, and finish runs the giveBack once the reply has left, or its
// write has failed — exactly once on every path: an error reply (the
// method failing or panicking after the borrow) drops the tail and gives
// it back at once. A reply with a tail never waits in a reply group
// (transport.Burst.Add leaves no room after it), so for a serial method
// the giveBack comes on the goroutine that ran it — the object's mailbox
// goroutine, or the reader it lent its turn to, which gives the turn back
// only after the giveBack — and before the object's next serial method:
// the object may lend state it owns without a lock of its own. pagedev's
// readArray answers from the page it holds this way. A client request's
// ArgEncoder may lend the same way; its giveBack runs once the request
// has left (such a frame is never held either), or when it never will.
//
// Nor does a request take a lock that a request on another processor
// takes. Its frames, 64 KiB or less, come from and go back to the
// per-processor tier of internal/bufpool. The server finds the object,
// the method and the method's telemetry in tables that are published and
// never written — the object table, the class's method table, a table of
// stats by methodEntry.index — and a client finds its connection to the
// machine the same way; whatever changes one of them (a construction, a
// delete, a registration, a dial) publishes a copy under the owner's
// lock. Admission and the drain tokens are atomics (above), and the
// admission instant is one read of the monotonic clock, an offset from a
// package epoch.
//
// The caller's half of the bargain is Release: the decoder returned by
// Call (or Future.Wait) owns its response frame, and releasing it after
// decoding returns the frame to the shared pool. Views obtained from
// Decoder.BytesView/Bytes/StringBytes alias that frame and die with it —
// copy anything that outlives the decode. Dropping a decoder without
// Release is always safe; it merely falls back to the garbage collector.
// Future.Err, Future.Ref and SplitLoop with a nil settle release for you.
package rmi
