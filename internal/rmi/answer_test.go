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
// construction or a call can end. A constructor's or a method's own error
// is answered as it is: the client's RemoteError names the operation.
var admittedCases = []answerCase{
	{"good call", opCall, callOf(1, "echo", func(e *wire.Encoder) { e.PutBytes([]byte("payload")) }), ""},
	{"method returns an error", opCall, callOf(2, "fail", nil), "deliberate failure"},
	{"method panics", opCall, callOf(2, "explode", nil), "method panic: kaboom"},
	{"no such method", opCall, callOf(2, "nope", nil), "rmi: no such method: test.Counter.nope"},
	{"no such object", opCall, callOf(99, "get", nil), "rmi: no such object: machine 0 object 99"},
	{"call to a terminated object", opCall, callOf(3, "get", nil), "rmi: no such object: machine 0 object 3 (terminated)"},
	{"ping of a terminated object", opCall, callOf(3, methodPing, nil), "rmi: no such object: machine 0 object 3 (terminated)"},
	{"object ping", opCall, callOf(2, methodPing, nil), ""},
	{"truncated call header", opCall, func(e *wire.Encoder) { e.PutUvarint(2); e.PutUvarint(40); e.PutByte('g') }, "wire: truncated input"},
	{"truncated new header", opNew, func(e *wire.Encoder) { e.PutUvarint(40); e.PutByte('t') }, "wire: truncated input"},
	{"unknown class", opNew, newOf("test.Nope", nil), `rmi: no such class: "test.Nope"`},
	{"constructor fails", opNew, newOf("test.Counter", func(e *wire.Encoder) { e.PutInt(-1) }), "negative start -1"},
	{"constructor panics", opNew, newOf("test.CounterBoom", nil), "constructor panic: constructor kaboom"},
	{"constructor succeeds", opNew, newOf("test.Counter", func(e *wire.Encoder) { e.PutInt(7) }), ""},
}

// ask dispatches one request and returns the body of its answer and the
// error text ("" for statusOK), failing the test when the answer is late
// or under another request id.
func ask(t *testing.T, srv *Server, conn transport.Conn, sent <-chan []byte, id uint64, c answerCase) (*wire.Decoder, string) {
	t.Helper()
	srv.dispatch(&connReader{Conn: conn}, requestFrame(id, PrioNormal, c.op, c.rest), nil)
	return readAnswer(t, sent, id, c.name)
}

func readAnswer(t *testing.T, sent <-chan []byte, id uint64, name string) (*wire.Decoder, string) {
	t.Helper()
	got, d, text := nextAnswer(t, sent, name)
	if got != id {
		t.Fatalf("%s: request %d answered as %d", name, id, got)
	}
	return d, text
}

// nextAnswer reads the next reply: the request id it answers, its body,
// and its error text ("" for statusOK).
func nextAnswer(t *testing.T, sent <-chan []byte, name string) (uint64, *wire.Decoder, string) {
	t.Helper()
	var frame []byte
	select {
	case frame = <-sent:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no reply", name)
	}
	d := wire.NewDecoder(frame)
	id := d.Uvarint()
	if d.Uvarint() == statusOK {
		return id, d, ""
	}
	text := d.String()
	if d.Err() != nil || text == "" || d.Remaining() != 0 {
		t.Fatalf("%s: malformed error reply (%v, %q, %d bytes left)", name, d.Err(), text, d.Remaining())
	}
	return id, d, text
}

// answersOf reads the replies of a group, in whatever order it wrote
// them, and returns each one's error text by request id; a request
// answered twice fails the test.
func answersOf(t *testing.T, sent <-chan []byte, n int, name string) map[uint64]string {
	t.Helper()
	texts := make(map[uint64]string, n)
	for range n {
		id, _, text := nextAnswer(t, sent, name)
		if _, twice := texts[id]; twice {
			t.Fatalf("%s: request %d answered twice", name, id)
		}
		texts[id] = text
	}
	return texts
}

// answers reports whether text is the answer want stands for: the same
// text, or for a want ending in "…" one that begins with what precedes it.
func answers(text, want string) bool {
	prefix, open := strings.CutSuffix(want, "…")
	return text == want || open && strings.HasPrefix(text, prefix)
}

// depthTap refuses to let a reply leave while any admission slot is held.
type depthTap struct {
	*tapConn
	srv  *Server
	held atomic.Pointer[[NumPriorities]int] // the first non-zero QueueDepths seen in a write
}

func (c *depthTap) Send(msg []byte) error {
	c.look()
	return c.tapConn.Send(msg)
}

func (c *depthTap) SendBurst(frames []transport.Frame) error {
	c.look()
	return c.tapConn.SendBurst(frames)
}

func (c *depthTap) look() {
	if d := c.srv.QueueDepths(); d != [NumPriorities]int{} {
		c.held.CompareAndSwap(nil, &d)
	}
}

// TestSlotIsFreeWhenReplyLeaves holds the order of finish: whatever a
// construction or a call ends in — early exits included — its admission
// slot is free before its reply is handed to the connection, so a client
// that reads QueueDepths, or sends its next request, on a second
// connection never meets the one it already has the answer to. So it is
// when the request is one of a reply group, here closed by a ping.
func TestSlotIsFreeWhenReplyLeaves(t *testing.T) {
	srv := answerServer(t)
	tap := &depthTap{tapConn: newTapConn(), srv: srv}
	id := uint64(0)
	for _, c := range admittedCases {
		id++
		_, text := ask(t, srv, tap, tap.sent, id, c)
		if text != c.want {
			t.Errorf("%s: answered %q, want %q", c.name, text, c.want)
		}
		if d := tap.held.Swap(nil); d != nil {
			t.Errorf("%s: reply sent with admission slots %v still held", c.name, *d)
		}

		id += 2
		r := &connReader{Conn: tap}
		open := srv.dispatch(r, requestFrame(id-1, PrioNormal|leadGroupFlag, c.op, c.rest), nil)
		srv.dispatch(r, requestFrame(id, PrioHigh, opPing, nil), open)
		if got := answersOf(t, tap.sent, 2, c.name+", grouped"); got[id-1] != c.want || got[id] != "" {
			t.Errorf("%s, grouped: answered %q, want %q", c.name, got[id-1], c.want)
		}
		if d := tap.held.Swap(nil); d != nil {
			t.Errorf("%s, grouped: replies sent with admission slots %v still held", c.name, *d)
		}
	}
}

// TestGroupEndsWithItsConnection: a connection that ends inside a burst —
// marked requests, and no unmarked one to close their group — still
// answers what it accepted: its end closes the group, the replies go to
// the dead connection, and Drain returns.
func TestGroupEndsWithItsConnection(t *testing.T) {
	registerGate()
	srv := answerServer(t)
	gate, err := srv.AddObject("test.Gate", &gateObj{gate: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	tap := newTapConn()
	srv.connWG.Add(1)
	go srv.serveConn(&connReader{Conn: tap})
	for id, call := range []func(e *wire.Encoder){
		callOf(1, "echo", func(e *wire.Encoder) { e.PutBytes(nil) }),
		callOf(gate.Object, "hold", nil),
	} {
		<-tap.asked
		tap.feed <- requestFrame(uint64(id+1), PrioNormal|leadGroupFlag, opCall, call)
	}
	<-tap.asked // both dispatched
	tap.Close()
	obj, _ := srv.Object(gate.Object)
	obj.(*gateObj).release()
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("Drain after the connection ended inside a burst: %v", err)
	}
}

// TestEveryRequestIsAnsweredOnce drives every operation and every way it
// can be refused through dispatch: each request draws exactly one frame,
// with the status and error text the server of PR 24 gave it; afterwards
// Drain finds no token outstanding and the record pool holds nothing of
// the requests that passed through it. So does each request of a reply
// group whose members end every way but one of them parked, and Drain
// waits for the group's write.
func TestEveryRequestIsAnsweredOnce(t *testing.T) {
	registerGate()
	srv := answerServer(t)
	tap := newTapConn()
	id := uint64(0)
	next := func(c answerCase) (*wire.Decoder, string) {
		t.Helper()
		id++
		d, text := ask(t, srv, tap, tap.sent, id, c)
		if !answers(text, c.want) {
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
	srv.dispatch(&connReader{Conn: tap}, requestFrame(parked, PrioNormal, opCall, callOf(gate.Object, "hold", nil)), nil)
	const full = "rmi: machine overloaded: machine 0 normal class full (1 in flight); retry after …"
	next(answerCase{"shed new", opNew, newOf("test.Counter", nil), full})
	next(answerCase{"shed call", opCall, callOf(1, "echo", nil), full})

	// A reply group, on a second connection: a shed call, an unknown
	// method, a concurrent method, a construction and a call parked on a
	// second gate, closed by a frame too short to name its request.
	gated, err := srv.AddObject("test.Gate", &gateObj{gate: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	open, err := srv.AddObject("test.Gate", &gateObj{gate: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	group := []struct {
		prio Priority
		answerCase
	}{
		{PrioNormal, answerCase{"grouped shed call", opCall, callOf(1, "echo", nil), full}},
		{PrioHigh, answerCase{"grouped unknown method", opCall, callOf(2, "nope", nil), "rmi: no such method: test.Counter.nope"}},
		{PrioHigh, answerCase{"grouped concurrent method", opCall, callOf(open.Object, "release", nil), ""}},
		{PrioHigh, answerCase{"grouped construction", opNew, newOf("test.Counter", func(e *wire.Encoder) { e.PutInt(1) }), ""}},
		{PrioHigh, answerCase{"grouped parked call", opCall, callOf(gated.Object, "hold", nil), ""}},
	}
	gtap := newTapConn()
	gr := &connReader{Conn: gtap}
	grouped := id + 1
	var g *replyGroup
	for _, m := range group {
		id++
		g = srv.dispatch(gr, requestFrame(id, m.prio|leadGroupFlag, m.op, m.rest), g)
	}
	srv.dispatch(gr, []byte{byte(PrioHigh) | leadGroupFlag, 0x80}, g)

	// Draining refuses pings; the parked calls still answer, and only then
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
	release := func(gate Ref) {
		obj, _ := srv.Object(gate.Object)
		obj.(*gateObj).release()
	}
	release(gate)
	if _, text := readAnswer(t, tap.sent, parked, "parked call"); text != "" {
		t.Errorf("parked call: answered %q", text)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a grouped call parked", err)
	default:
	}
	release(gated)
	got := answersOf(t, gtap.sent, len(group), "group")
	for i, m := range group {
		if text := got[grouped+uint64(i)]; !answers(text, m.want) {
			t.Errorf("%s: answered %q, want %q", m.name, text, m.want)
		}
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain with every request answered: %v", err)
	}
	if d := srv.QueueDepths(); d != [NumPriorities]int{} {
		t.Errorf("admission slots %v held with every request answered", d)
	}
	srv.Close()
	if n := len(tap.sent) + len(gtap.sent); n != 0 {
		t.Errorf("%d frames more than requests", n)
	}
	for i := 0; i < 8; i++ {
		rec := callTaskPool.Get().(*callTask)
		if rec.s != nil || rec.conn != nil || rec.args != nil || rec.span != nil || rec.entry != nil || rec.env != nil || rec.stats != nil || rec.group != nil {
			t.Errorf("the pool handed back a record that still holds its request: %+v", *rec)
		}
	}
}
