package rmi

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// lender is a test object whose replies lend its values (BorrowFloat64s)
// and count the give-backs: lends is how many replies borrowed, gives how
// many give-backs ran, out whether a reply's values are still lent.
type lender struct {
	vals     []float64
	giveBack func() // bound once, as a page device binds its own
	lends    atomic.Int64
	gives    atomic.Int64
	out      atomic.Bool
}

func newLender() *lender {
	l := &lender{vals: make([]float64, 1000)}
	l.giveBack = func() {
		if !l.out.Swap(false) {
			panic("give-back of values that are not lent")
		}
		clear(l.vals) // a reply that left after this would carry zeros
		l.gives.Add(1)
	}
	return l
}

// lendVal is value i of a lender's reply.
func lendVal(i int) float64 { return float64(i) + 0.25 }

// lend fills the values and lends the first n of them to reply.
func (l *lender) lend(args *wire.Decoder, reply *wire.Encoder) {
	n := args.Int()
	for i := range l.vals {
		l.vals[i] = lendVal(i)
	}
	if l.out.Swap(true) {
		panic("values lent twice")
	}
	l.lends.Add(1)
	reply.BorrowFloat64s(l.vals[:n], l.giveBack)
}

var registerLenderOnce sync.Once

func registerLender() {
	registerLenderOnce.Do(func() {
		Register("test.Lender", func(env *Env, args *wire.Decoder) (any, error) {
			return newLender(), nil
		}).
			Method("lend", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				obj.(*lender).lend(args, reply)
				return nil
			}).
			Method("lendFail", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				obj.(*lender).lend(args, reply)
				return errors.New("failed after lending")
			}).
			Method("lendPanic", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				obj.(*lender).lend(args, reply)
				panic("lent and exploded")
			}).
			Method("check", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				if obj.(*lender).out.Load() {
					return errors.New("values still lent at the next serial method")
				}
				return nil
			}).
			Method("sum", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				var s float64
				for _, v := range args.Float64s() {
					s += v
				}
				reply.PutFloat64(s)
				return nil
			})
	})
}

// TestReplyGiveBackRunsOnce: a reply that lends values leaves with them as
// they were lent, and its give-back runs exactly once however the call
// ends — the reply sent, alone or as a member of a reply group, which it
// does not wait for; its send failed on a closed connection; the method
// failing or panicking after the borrow, whose error reply drops the tail
// — and before the object's next serial method; a call that expires
// before it runs borrows nothing and gives nothing back. A client's
// request that lends its arguments gives them back once too, sent or not.
func TestReplyGiveBackRunsOnce(t *testing.T) {
	registerLender()
	srv := answerServer(t)
	ref, err := srv.AddObject("test.Lender", newLender())
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := srv.Object(ref.Object)
	l := obj.(*lender)
	lendArgs := func(n int) func(e *wire.Encoder) { return func(e *wire.Encoder) { e.PutInt(n) } }
	tap := newTapConn()
	id := uint64(0)
	// checkGiven asks the object's next serial method whether anything is
	// still lent, then holds the counts to lends borrows and as many
	// give-backs.
	checkGiven := func(name string, lends int64) {
		t.Helper()
		id++
		if _, text := ask(t, srv, tap, tap.sent, id, answerCase{name + ": check", opCall, callOf(ref.Object, "check", nil), ""}); text != "" {
			t.Errorf("%s: %s", name, text)
		}
		if got, gave := l.lends.Load(), l.gives.Load(); got != lends || gave != lends {
			t.Errorf("%s: %d borrows and %d give-backs, want %d of each", name, got, gave, lends)
		}
	}
	checkVals := func(name string, d *wire.Decoder, n int) {
		t.Helper()
		got := d.Float64s()
		if d.Err() != nil || len(got) != n || d.Remaining() != 0 {
			t.Fatalf("%s: reply of %d values (%v), want %d", name, len(got), d.Err(), n)
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(lendVal(i)) {
				t.Fatalf("%s: value %d reads %v, lent %v", name, i, v, lendVal(i))
			}
		}
	}

	// Sent, alone.
	id++
	d, text := ask(t, srv, tap, tap.sent, id, answerCase{"lend", opCall, callOf(ref.Object, "lend", lendArgs(1000)), ""})
	if text != "" {
		t.Fatalf("lend: %s", text)
	}
	checkVals("lend", d, 1000)
	checkGiven("lend", 1)

	// Sent as a member of a group that stays open: it leaves at once.
	id++
	open := srv.dispatch(tap, requestFrame(id, PrioNormal|leadGroupFlag, opCall, callOf(ref.Object, "lend", lendArgs(3))), nil)
	d, text = readAnswer(t, tap.sent, id, "grouped lend")
	if text != "" {
		t.Fatalf("grouped lend: %s", text)
	}
	checkVals("grouped lend", d, 3)
	open.close()
	checkGiven("grouped lend", 2)

	// Failed or panicked after the borrow: the error reply drops the tail.
	for i, c := range []answerCase{
		{"error after the borrow", opCall, callOf(ref.Object, "lendFail", lendArgs(10)), "test.Lender.lendFail: failed after lending"},
		{"panic after the borrow", opCall, callOf(ref.Object, "lendPanic", lendArgs(10)), "test.Lender.lendPanic: method panic: lent and exploded"},
	} {
		id++
		if _, text := ask(t, srv, tap, tap.sent, id, c); text != c.want {
			t.Errorf("%s: answered %q, want %q", c.name, text, c.want)
		}
		checkGiven(c.name, int64(3+i))
	}

	// Expired before it ran: nothing borrowed, nothing given back.
	id++
	expired := func(e *wire.Encoder) {
		e.PutUvarint(ref.Object)
		e.PutString("lend")
		e.PutVarint(1) // a deadline long past
		e.PutInt(10)
	}
	if _, text := ask(t, srv, tap, tap.sent, id, answerCase{"expired", opCall, expired, ""}); !answers(text, "test.Lender.lend: expired before execution…") {
		t.Errorf("expired: answered %q", text)
	}
	checkGiven("expired", 4)

	// Sent on a closed connection: the write fails, the values come back.
	closed := newTapConn()
	closed.Close()
	id++
	srv.dispatch(closed, requestFrame(id, PrioNormal, opCall, callOf(ref.Object, "lend", lendArgs(1000))), nil)
	checkGiven("closed connection", 5)

	// A client's request that lends its arguments: sent, and not sent.
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c := nodes[0].client
	sumRef, err := c.New(bg, 0, "test.Lender", nil)
	if err != nil {
		t.Fatal(err)
	}
	args := []float64{1, 2, 3.5}
	for _, ctx := range []context.Context{bg, canceled()} {
		var gives int
		d, err := c.Call(ctx, sumRef, "sum", func(e *wire.Encoder) error {
			e.BorrowFloat64s(args, func() { gives++ })
			return nil
		})
		if ctx == bg {
			if err != nil || d.Float64() != 6.5 {
				t.Errorf("client lend: %v", err)
			}
			d.Release()
		} else if err == nil {
			t.Error("client lend on a canceled context: sent")
		}
		if gives != 1 {
			t.Errorf("client lend (context error %v): given back %d times, want once", ctx.Err(), gives)
		}
	}
}

// canceled is a context that is done already.
func canceled() context.Context {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	return ctx
}
