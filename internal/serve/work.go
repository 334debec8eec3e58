package serve

import (
	"fmt"
	"sync"
	"time"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// ClassWork is the registered name of the serving-tier workload class.
const ClassWork = "serve.Work"

// Work is a remote workload object with precisely-shaped service times,
// used by the admission-control tests, experiment E14, cmd/opploadgen
// and the e2e suite. Its serial methods, each named by its handle:
//
//	WorkEcho  echo(payload []byte) -> payload — the small-call hot path
//	WorkSleep sleep(us int)        -> ()      — off-CPU service time
//	WorkSpin  spin(us int)         -> ()      — on-CPU service time
//	WorkWait  wait()               -> ()      — block until open is called
//	WorkBind  bind(peer Ref)       -> ()      — set the relay target
//	WorkRelay relay(payload)       -> payload — echo via the bound peer's machine
//
// and one concurrent method:
//
//	WorkOpen  open()               -> ()      — release every wait, permanently
//
// wait/open build exact queue shapes: wait parks the object's serial
// mailbox, every later serial call queues behind it (counting against
// its priority class's in-flight budget), and open — concurrent, so it
// bypasses the mailbox — releases the dam. That is how the tests fill an
// admission class to exactly its capacity and how E14 holds 10k calls in
// flight at once.
//
// bind/relay build exact peer-hop shapes: relay re-issues its payload as
// an echo on the bound peer through the machine's outbound client,
// passing env.Ctx() so a trace riding the inbound request extends across
// the hop — the two-machine causality check of the tracing plane.
type Work struct {
	gate     chan struct{}
	openOnce sync.Once
	parked   chan struct{} // closed when the first wait holds the mailbox
	parkOnce sync.Once
	peer     rmi.Ref // relay target; set by bind (serial, like relay)
}

// Open releases the gate server-side (same effect as a call of WorkOpen).
func (w *Work) Open() { w.openOnce.Do(func() { close(w.gate) }) }

// WorkClass is Work's class; its constructor takes no argument.
var WorkClass = rmi.RegisterClass(ClassWork, wire.Void, func(env *rmi.Env, _ struct{}) (*Work, error) {
	return &Work{gate: make(chan struct{}), parked: make(chan struct{})}, nil
})

// Work's methods; the type's doc lists their arguments and replies.
var (
	WorkEcho = WorkClass.Declare("echo", func(w *Work, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		reply.PutBytes(args.BytesView())
		return nil
	})
	WorkSleep = rmi.DeclareOp(WorkClass, "sleep", wire.Int, wire.Void, func(w *Work, env *rmi.Env, us int) (struct{}, error) {
		time.Sleep(time.Duration(us) * time.Microsecond)
		return struct{}{}, nil
	})
	WorkSpin = rmi.DeclareOp(WorkClass, "spin", wire.Int, wire.Void, func(w *Work, env *rmi.Env, us int) (struct{}, error) {
		d := time.Duration(us) * time.Microsecond
		for start := time.Now(); time.Since(start) < d; {
		}
		return struct{}{}, nil
	})
	WorkWait = rmi.DeclareOp(WorkClass, "wait", wire.Void, wire.Void, func(w *Work, env *rmi.Env, _ struct{}) (struct{}, error) {
		w.parkOnce.Do(func() { close(w.parked) })
		<-w.gate
		return struct{}{}, nil
	})
	WorkBind = rmi.DeclareOp(WorkClass, "bind", wire.RemoteRef, wire.Void, func(w *Work, env *rmi.Env, peer rmi.Ref) (struct{}, error) {
		w.peer = peer
		return struct{}{}, nil
	})
	WorkRelay = WorkClass.Declare("relay", func(w *Work, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		if w.peer.IsNil() {
			return fmt.Errorf("serve: relay with no bound peer (call bind first)")
		}
		if env.Client == nil {
			return fmt.Errorf("serve: relay needs an outbound client")
		}
		payload := args.BytesView()
		d, err := WorkEcho.Call(env.Ctx(), env.Client, w.peer, EchoArgs(payload))
		if err != nil {
			return err
		}
		reply.PutBytes(d.BytesView())
		d.Release()
		return nil
	})
	WorkOpen = rmi.DeclareConcurrentOp(WorkClass, "open", wire.Void, wire.Void, func(w *Work, env *rmi.Env, _ struct{}) (struct{}, error) {
		w.Open()
		return struct{}{}, nil
	})
)

// SleepArgs encodes the argument of WorkSleep and WorkSpin.
func SleepArgs(us int) rmi.ArgEncoder {
	return func(e *wire.Encoder) error { e.PutInt(us); return nil }
}

// EchoArgs encodes the argument of WorkEcho and WorkRelay. The payload is
// captured by reference; it must stay unchanged until the call is issued.
func EchoArgs(payload []byte) rmi.ArgEncoder {
	return func(e *wire.Encoder) error { e.PutBytes(payload); return nil }
}
