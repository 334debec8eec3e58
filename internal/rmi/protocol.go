package rmi

import (
	"oopp/internal/trace"
	"oopp/internal/wire"
)

// Wire protocol opcodes. A request frame is:
//
//	lead byte | reqID uvarint | op uvarint | [trace header] | op-specific header | argument payload
//
// and a response frame is:
//
//	reqID uvarint | status uvarint | error string (status!=0) or results
//
// The lead byte carries the priority class in its low bits (0–1), the
// reply-group flag in bit 6 (leadGroupFlag) and the trace-presence flag in
// bit 7 (leadTraceFlag); when the trace flag is set a trace header follows
// the op uvarint. The lead byte heads the frame as a fixed-width field so
// a server can classify — and, under overload, shed — a request by
// looking at frame[0], before spending any decode work on it. Responses
// carry no priority: they are answers to work already done.
//
// Frames ride on transport.Conn messages; framing is the transport's job.
// The opCall header carries the client's absolute deadline (unix
// nanoseconds as a varint, 0 = none) after the method name: a request
// whose deadline passes while it is parked in a mailbox is shed before
// execution (typed context.DeadlineExceeded) instead of burning server
// time on a result nobody is waiting for.
const (
	opNew    = 1 // class string, ctor args        -> object id
	opCall   = 2 // object uvarint, method string, deadline varint, args -> results
	opDelete = 3 // object uvarint                 -> (empty)
	opPing   = 4 // (empty)                        -> (empty)
	opStat   = 5 // (empty)                        -> live uvarint, total uvarint
	opDebug  = 6 // (empty)                        -> JSON trace.Snapshot bytes
)

// leadTraceFlag is bit 7 of the leading byte: when set, a trace header
//
//	traceID uvarint | spanID uvarint | flags byte (bit 0 = sampled)
//
// follows the op uvarint, ahead of the op-specific header. The flag
// shares the lead byte with the priority class (which only ever uses
// values 0..NumPriorities-1), so old-format frames — whose lead byte is
// a bare priority — decode as "no trace" on a new server, and a client
// with no trace in its context emits frames byte-identical to the old
// format. Version tolerance costs one bit, not a protocol revision.
const leadTraceFlag = 0x80

// leadGroupFlag is bit 6 of the leading byte: the request's reply may wait
// for the reply of the next request on the connection, so that the replies
// of a collective's burst leave the server in one write (replyGroup). A
// client sets it on every frame of a burst it flushes whose successor in
// the same write belongs to the same collective (clientConn.write); the
// first unmarked frame after marked ones closes the group. A client that
// never sets it, an older one among them, has every reply written by
// itself.
const leadGroupFlag = 0x40

// decodeTraceHeader reads the optional trace header announced by lead.
// A frame without the flag, and a frame whose trace fields are truncated
// or corrupt, both decode as the zero ("untraced") SpanContext — tracing
// is an observability hint, never a reason to fail a request. The
// decoder's sticky error is left for the op-specific decode to surface
// if the frame is genuinely truncated.
func decodeTraceHeader(lead byte, d *wire.Decoder) trace.SpanContext {
	if lead&leadTraceFlag == 0 {
		return trace.SpanContext{}
	}
	tid := d.Uvarint()
	sid := d.Uvarint()
	flags := d.Byte()
	if d.Err() != nil {
		return trace.SpanContext{}
	}
	return trace.SpanContext{TraceID: tid, SpanID: sid, Sampled: flags&1 != 0}
}

// putTraceHeader appends the trace header fields (the caller has already
// set leadTraceFlag on the lead byte and written reqID and op).
func putTraceHeader(e *wire.Encoder, sc trace.SpanContext) {
	e.PutUvarint(sc.TraceID)
	e.PutUvarint(sc.SpanID)
	var flags byte
	if sc.Sampled {
		flags = 1
	}
	e.PutByte(flags)
}

// Response status codes.
const (
	statusOK  = 0
	statusErr = 1
)

// Priority is a request's admission class, carried in the leading byte
// of every request frame. Lower values are more urgent. The server keeps
// a separate bounded in-flight budget per class (see AdmissionConfig),
// so a flood of bulk page sweeps can never starve the control plane:
// heartbeat probes and readiness pings ride PrioHigh, ordinary method
// calls PrioNormal, and batch/background traffic should be stamped
// PrioBulk with WithPriority.
type Priority uint8

const (
	// PrioHigh is the control-plane class: pings, stats, deletes, and
	// anything stamped WithPriority(PrioHigh). The failure detector's
	// probes ride here, which is what keeps them honest under load.
	PrioHigh Priority = iota
	// PrioNormal is the default class for method calls and constructions.
	PrioNormal
	// PrioBulk is the background class for batch work (page sweeps,
	// bulk transfers); it gets the smallest default budget.
	PrioBulk

	// NumPriorities is the number of admission classes.
	NumPriorities = 3
)

// String returns the class name used in errors and stats.
func (p Priority) String() string {
	switch p {
	case PrioHigh:
		return "high"
	case PrioNormal:
		return "normal"
	case PrioBulk:
		return "bulk"
	default:
		return "invalid"
	}
}

// clampPriority maps an arbitrary wire byte onto a valid class. The
// trace-presence and reply-group flags are masked off first; remaining
// unknown values (a newer peer's class, a corrupt frame) degrade to
// PrioNormal rather than failing the request: priority is a scheduling
// hint, not a correctness bit.
func clampPriority(b byte) Priority {
	b &^= leadTraceFlag | leadGroupFlag
	if b >= NumPriorities {
		return PrioNormal
	}
	return Priority(b)
}

// Reserved method names, handled by the server ahead of the class method
// table. Objects cannot register names starting with '_'.
const (
	// methodPing is a no-op serial method available on every object. A
	// ping response proves every earlier mailbox message was processed —
	// the primitive under BarrierRefs.
	methodPing = "_ping"
)
