package rmi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"oopp/internal/transport"
)

// ErrNoSuchObject is returned when a call targets an object that does not
// exist (never created, or already deleted — the paper's terminated
// process).
var ErrNoSuchObject = errors.New("rmi: no such object")

// ErrNoSuchClass is returned when New names an unregistered class.
var ErrNoSuchClass = errors.New("rmi: no such class")

// ErrNoSuchMethod is returned when Call names a method absent from the
// class's method table.
var ErrNoSuchMethod = errors.New("rmi: no such method")

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("rmi: client closed")

// ErrMachineDown is the sentinel for machine-level failure: a connection
// died, dialing was exhausted, or the heartbeat detector declared the
// machine failed. Match with errors.Is; the concrete error in the chain
// is a *MachineDownError carrying the machine index and cause, so a
// collective's errors.Join can be mined for exactly which machines
// failed (each MemberError's Machine; collection.FailedMachines).
var ErrMachineDown = errors.New("rmi: machine down")

// ErrDraining is reported by a server that is gracefully shutting down:
// in-flight calls complete, but new constructions and calls are refused.
// It crosses the wire as a RemoteError whose Is matches this sentinel.
var ErrDraining = errors.New("rmi: machine draining")

// ErrOverloaded is the sentinel for admission-control rejection: the
// target machine is up and healthy but the request's priority class has
// no in-flight budget left, so the request was shed without being
// executed. Match with errors.Is; the concrete error is an
// *OverloadedError (locally) or a RemoteError wrapping its text (across
// the wire), and RetryAfter extracts the server's backoff hint from
// either. A shed request was never started — retrying it is always safe.
//
// Precedence: a machine that is both draining and saturated reports
// ErrDraining, never ErrOverloaded — "going away" is the stronger fact,
// and retrying against a draining machine is futile.
var ErrOverloaded = errors.New("rmi: machine overloaded")

// ErrFenced is the sentinel for a write rejected by a migration fence:
// the target page is mid-migration to another device, so mutating it
// here would be lost when the page map flips. The write was applied
// nowhere (fenced methods check their whole batch before touching any
// page), so after the flip the caller re-locates the page in the fresh
// map and re-issues — the park-and-replay the Array write path performs
// automatically. Reads are never fenced. It crosses the wire as a
// RemoteError whose Is matches this sentinel.
var ErrFenced = errors.New("rmi: page fenced for migration")

// MachineDownError reports that a machine is unreachable: its connection
// was lost mid-call, every dial attempt failed, or the failure detector
// (Client.StartHeartbeat) declared it down. It matches ErrMachineDown
// under errors.Is.
type MachineDownError struct {
	Machine int   // the unreachable machine
	Cause   error // what made it unreachable (dial error, read error, missed heartbeats)
}

// Error implements the error interface.
func (e *MachineDownError) Error() string {
	return fmt.Sprintf("rmi: machine %d down: %v", e.Machine, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *MachineDownError) Unwrap() error { return e.Cause }

// Is matches the ErrMachineDown sentinel.
func (e *MachineDownError) Is(target error) bool { return target == ErrMachineDown }

// OverloadedError reports that a server shed a request at admission: the
// in-flight budget of the request's priority class was exhausted. It
// matches ErrOverloaded under errors.Is. RetryAfter is the server's
// estimate of when a slot is likely to free (derived from its recent
// service times) — a cooperative backoff hint, not a guarantee.
type OverloadedError struct {
	Machine    int           // machine that shed the request
	Priority   Priority      // the saturated admission class
	Queued     int           // in-flight requests of that class at rejection
	RetryAfter time.Duration // suggested client backoff before retrying
}

// Error implements the error interface. The text embeds the ErrOverloaded
// sentinel and the retry hint in a fixed grammar so both survive the trip
// across the wire inside a RemoteError (see RetryAfter).
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("rmi: machine overloaded: machine %d %s class full (%d in flight); retry after %v",
		e.Machine, e.Priority, e.Queued, e.RetryAfter)
}

// Is matches the ErrOverloaded sentinel.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// retryAfterMarker is the fixed phrase OverloadedError.Error uses ahead
// of the hint, and RetryAfter parses after — the cross-wire contract.
const retryAfterMarker = "retry after "

// RetryAfter extracts the server's backoff hint from an overload
// rejection, whether the error is a local *OverloadedError or a
// RemoteError that carried one across the wire. ok is false when err is
// not an overload rejection (or the hint did not survive transit);
// callers should then fall back to their own backoff.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	var re *RemoteError
	if !errors.As(err, &re) || !errors.Is(re, ErrOverloaded) {
		return 0, false
	}
	i := strings.LastIndex(re.Msg, retryAfterMarker)
	if i < 0 {
		return 0, false
	}
	hint := re.Msg[i+len(retryAfterMarker):]
	// The hint is the tail of the message; trim any wrapper's trailing
	// punctuation before parsing.
	hint = strings.TrimRight(hint, " )].,;")
	d, perr := time.ParseDuration(hint)
	if perr != nil || d < 0 {
		return 0, false
	}
	return d, true
}

// RemoteError is an error that occurred on the remote machine while
// constructing an object or executing a method. It travels back to the
// caller as part of the response frame.
type RemoteError struct {
	Machine int    // machine where the error occurred
	Class   string // class involved, if known
	Method  string // method involved ("" for constructors)
	Msg     string // error text
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	if e.Method == "" {
		return fmt.Sprintf("rmi: remote error on machine %d constructing %s: %s", e.Machine, e.Class, e.Msg)
	}
	return fmt.Sprintf("rmi: remote error on machine %d in %s.%s: %s", e.Machine, e.Class, e.Method, e.Msg)
}

// wireSentinels are the sentinels an error keeps across the wire: the
// server sends only text, and RemoteError.Is finds a sentinel by its text
// in the message.
var wireSentinels = []error{
	ErrNoSuchObject, ErrNoSuchClass, ErrNoSuchMethod, ErrDraining, ErrOverloaded, ErrFenced,
	// The method ran, but its reply was too long to be sent: the server
	// answered with why instead.
	transport.ErrFrameTooLarge,
	// A server-side deadline shed (see the opCall deadline field) reports
	// the same type the client's own timer would have: the request missed
	// its deadline, whichever side noticed first.
	context.DeadlineExceeded,
}

// Is reports sentinel matches so callers can use errors.Is against the
// exported sentinels even though the error crossed the wire as text.
func (e *RemoteError) Is(target error) bool {
	for _, s := range wireSentinels {
		if target == s {
			return strings.Contains(e.Msg, s.Error())
		}
	}
	return false
}
