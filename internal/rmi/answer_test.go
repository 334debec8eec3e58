package rmi

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/trace"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// requestFrame is a request as a client writes it: lead byte, request id,
// opcode, then whatever header and arguments rest appends.
func requestFrame(id uint64, lead Priority, op uint64, rest func(e *wire.Encoder)) []byte {
	e := wire.NewEncoder(64)
	e.PutByte(byte(lead))
	e.PutUvarint(id)
	e.PutUvarint(op)
	if rest != nil {
		rest(e)
	}
	return e.Bytes()
}

// answerCase is one request and what the server of PR 24 answered it:
// the error text of a statusErr reply, or "" for statusOK.
type answerCase struct {
	name string
	op   uint64
	rest func(e *wire.Encoder)
	want string
}

func callOf(object uint64, method string, args func(e *wire.Encoder)) func(e *wire.Encoder) {
	return func(e *wire.Encoder) {
		e.PutUvarint(object)
		e.PutString(method)
		e.PutVarint(0) // no deadline
		if args != nil {
			args(e)
		}
	}
}

func newOf(class string, args func(e *wire.Encoder)) func(e *wire.Encoder) {
	return func(e *wire.Encoder) {
		e.PutString(class)
		if args != nil {
			args(e)
		}
	}
}

// answerServer is a server with no connection but the tap its replies
// leave on, holding a test.Echo (object 1), a test.Counter (object 2) and
// a test.Counter whose process has terminated while the table still
// names it (object 3) — the window a delete racing a call leaves open.
func answerServer(t *testing.T) *Server {
	srv, err := NewServer(0, transport.NewInproc(transport.LinkModel{}), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for i, o := range []struct {
		class string
		obj   any
	}{{"test.Echo", &echo{}}, {"test.Counter", &counter{}}, {"test.Counter", &counter{}}} {
		ref, err := srv.AddObject(o.class, o.obj)
		if err != nil || ref.Object != uint64(i+1) {
			t.Fatalf("%s installed as %v (%v), want object %d", o.class, ref, err, i+1)
		}
	}
	srv.mu.Lock()
	srv.objects[3].mb.close()
	srv.mu.Unlock()
	return srv
}

// admittedCases are requests that take an admission token — every way a
// construction or a call can end.
var admittedCases = []answerCase{
	{"good call", opCall, callOf(1, "echo", func(e *wire.Encoder) { e.PutBytes([]byte("payload")) }), ""},
	{"method returns an error", opCall, callOf(2, "fail", nil), "test.Counter.fail: deliberate failure"},
	{"method panics", opCall, callOf(2, "explode", nil), "test.Counter.explode: method panic: kaboom"},
	{"no such method", opCall, callOf(2, "nope", nil), "rmi: no such method: test.Counter.nope"},
	{"no such object", opCall, callOf(99, "get", nil), "rmi: no such object: machine 0 object 99"},
	{"call to a terminated object", opCall, callOf(3, "get", nil), "rmi: no such object: machine 0 object 3 (terminated)"},
	{"ping of a terminated object", opCall, callOf(3, methodPing, nil), "rmi: no such object: machine 0 object 3 (terminated)"},
	{"object ping", opCall, callOf(2, methodPing, nil), ""},
	{"truncated call header", opCall, func(e *wire.Encoder) { e.PutUvarint(2); e.PutUvarint(40); e.PutByte('g') }, "wire: truncated input"},
	{"truncated new header", opNew, func(e *wire.Encoder) { e.PutUvarint(40); e.PutByte('t') }, "wire: truncated input"},
	{"unknown class", opNew, newOf("test.Nope", nil), `rmi: no such class: "test.Nope"`},
	{"constructor fails", opNew, newOf("test.Counter", func(e *wire.Encoder) { e.PutInt(-1) }), "constructing test.Counter: negative start -1"},
	{"constructor panics", opNew, newOf("test.CounterBoom", nil), "constructing test.CounterBoom: constructor panic: constructor kaboom"},
	{"constructor succeeds", opNew, newOf("test.Counter", func(e *wire.Encoder) { e.PutInt(7) }), ""},
}

// ask dispatches one request and returns the body of its answer and the
// error text ("" for statusOK), failing the test when the answer is late
// or under another request id.
func ask(t *testing.T, srv *Server, conn transport.Conn, sent <-chan []byte, id uint64, c answerCase) (*wire.Decoder, string) {
	t.Helper()
	srv.dispatch(conn, requestFrame(id, PrioNormal, c.op, c.rest))
	return readAnswer(t, sent, id, c.name)
}

func readAnswer(t *testing.T, sent <-chan []byte, id uint64, name string) (*wire.Decoder, string) {
	t.Helper()
	var frame []byte
	select {
	case frame = <-sent:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no reply", name)
	}
	d := wire.NewDecoder(frame)
	if got := d.Uvarint(); got != id {
		t.Fatalf("%s: request %d answered as %d", name, id, got)
	}
	if d.Uvarint() == statusOK {
		return d, ""
	}
	text := d.String()
	if d.Err() != nil || text == "" || d.Remaining() != 0 {
		t.Fatalf("%s: malformed error reply (%v, %q, %d bytes left)", name, d.Err(), text, d.Remaining())
	}
	return d, text
}

// depthTap refuses to let a reply leave while any admission slot is held.
type depthTap struct {
	*tapConn
	srv  *Server
	held atomic.Pointer[[NumPriorities]int] // the first non-zero QueueDepths seen in Send
}

func (c *depthTap) Send(msg []byte) error {
	if d := c.srv.QueueDepths(); d != [NumPriorities]int{} {
		c.held.CompareAndSwap(nil, &d)
	}
	return c.tapConn.Send(msg)
}

// TestSlotIsFreeWhenReplyLeaves holds the order of finish: whatever a
// construction or a call ends in — early exits included — its admission
// slot is free before its reply is handed to the connection, so a client
// that reads QueueDepths, or sends its next request, on a second
// connection never meets the one it already has the answer to.
func TestSlotIsFreeWhenReplyLeaves(t *testing.T) {
	srv := answerServer(t)
	tap := &depthTap{tapConn: newTapConn(), srv: srv}
	for i, c := range admittedCases {
		_, text := ask(t, srv, tap, tap.sent, uint64(i+1), c)
		if text != c.want {
			t.Errorf("%s: answered %q, want %q", c.name, text, c.want)
		}
		if d := tap.held.Swap(nil); d != nil {
			t.Errorf("%s: reply sent with admission slots %v still held", c.name, *d)
		}
	}
}

// TestEveryRequestIsAnsweredOnce drives every operation and every way it
// can be refused through dispatch: each request draws exactly one frame,
// with the status and error text the server of PR 24 gave it; afterwards
// Drain finds no token outstanding and the record pool holds nothing of
// the requests that passed through it.
func TestEveryRequestIsAnsweredOnce(t *testing.T) {
	registerGate()
	srv := answerServer(t)
	tap := newTapConn()
	id := uint64(0)
	next := func(c answerCase) (*wire.Decoder, string) {
		t.Helper()
		id++
		d, text := ask(t, srv, tap, tap.sent, id, c)
		if want := strings.TrimSuffix(c.want, "…"); text != want && (want == c.want || !strings.HasPrefix(text, want)) {
			t.Errorf("%s: answered %q, want %q", c.name, text, c.want)
		}
		return d, text
	}
	for _, c := range admittedCases {
		next(c)
	}
	next(answerCase{"server ping", opPing, nil, ""})
	if d, _ := next(answerCase{"stat", opStat, nil, ""}); d.Uvarint() != 4 || d.Uvarint() != 4 || d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("stat: want 4 live of 4 ever, nothing else (%v)", d.Err())
	}
	var snap trace.Snapshot
	if d, _ := next(answerCase{"debug", opDebug, nil, ""}); json.Unmarshal(d.Bytes(), &snap) != nil || d.Remaining() != 0 || len(snap.Methods) == 0 {
		t.Errorf("debug: the reply is not one byte string holding a snapshot with methods in it")
	}
	next(answerCase{"delete", opDelete, func(e *wire.Encoder) { e.PutUvarint(4) }, ""})
	next(answerCase{"delete of a missing object", opDelete, func(e *wire.Encoder) { e.PutUvarint(4) }, "rmi: no such object: machine 0 object 4"})
	next(answerCase{"delete of a terminated object", opDelete, func(e *wire.Encoder) { e.PutUvarint(3) }, "rmi: no such object: machine 0 object 3 (already terminating)"})
	next(answerCase{"truncated delete header", opDelete, nil, "wire: truncated input"})
	next(answerCase{"unknown opcode", 77, nil, "rmi: unknown opcode 77"})

	// A parked call holds the one slot of the normal class: the next
	// construction and the next call are shed.
	gate, err := srv.AddObject("test.Gate", &gateObj{gate: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAdmission(AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: 1}})
	id++
	parked := id
	srv.dispatch(tap, requestFrame(parked, PrioNormal, opCall, callOf(gate.Object, "hold", nil)))
	const full = "rmi: machine overloaded: machine 0 normal class full (1 in flight); retry after …"
	next(answerCase{"shed new", opNew, newOf("test.Counter", nil), full})
	next(answerCase{"shed call", opCall, callOf(1, "echo", nil), full})

	// Draining refuses pings; the parked call still answers, and only then
	// does Drain return.
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	next(answerCase{"ping while draining", opPing, nil, "rmi: machine draining"})
	next(answerCase{"call while draining", opCall, callOf(1, "echo", nil), "rmi: machine draining"})
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a call parked", err)
	default:
	}
	obj, _ := srv.Object(gate.Object)
	obj.(*gateObj).release()
	if _, text := readAnswer(t, tap.sent, parked, "parked call"); text != "" {
		t.Errorf("parked call: answered %q", text)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain with every request answered: %v", err)
	}
	if d := srv.QueueDepths(); d != [NumPriorities]int{} {
		t.Errorf("admission slots %v held with every request answered", d)
	}
	srv.Close()
	if n := len(tap.sent); n != 0 {
		t.Errorf("%d frames more than requests", n)
	}
	for i := 0; i < 8; i++ {
		rec := callTaskPool.Get().(*callTask)
		if rec.s != nil || rec.conn != nil || rec.args != nil || rec.span != nil || rec.entry != nil || rec.env != nil || rec.stats != nil {
			t.Errorf("the pool handed back a record that still holds its request: %+v", *rec)
		}
	}
}
