package rmi

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// A collective's members run where their requests are read: a member of a
// reply group of several, of a serial method whose last request here was
// quick, runs on the connection's reader when its object is idle. What is
// pinned here is when that happens and when it does not, that it keeps
// the mailbox's order and turns, and what a member that blocks or calls
// back costs.

// member is an object of the collectives in these tests. Its serial
// method "note" logs its argument and whether it ran on a reader, counts
// the runs that overlapped another, and first, when armed, blocks until
// its gate opens, or calls echo at a target through a client.
type member struct {
	mb      *mailbox
	inside  atomic.Bool
	overlap atomic.Int64
	mu      sync.Mutex
	log     []int
	inline  []bool // per log entry: ran on a reader

	gate    atomic.Pointer[chan struct{}] // the next note blocks until it closes
	entered chan struct{}                 // closed once a note waits at the gate
	back    atomic.Pointer[callback]      // each note calls echo there first
}

// callback is where a member's note calls echo first, and through which
// client.
type callback struct {
	c      *Client
	target Ref
}

func init() {
	Register("test.Member", func(env *Env, args *wire.Decoder) (any, error) {
		return nil, errors.New("installed by AddObject only")
	}).
		Method("note", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			m := obj.(*member)
			if m.inside.Swap(true) {
				m.overlap.Add(1)
			}
			defer m.inside.Store(false)
			m.mb.mu.Lock()
			lent := m.mb.lent
			m.mb.mu.Unlock()
			if gate := m.gate.Swap(nil); gate != nil {
				close(m.entered)
				<-*gate
			}
			if cb := m.back.Load(); cb != nil {
				d, err := cb.c.Call(bg, cb.target, "echo", func(e *wire.Encoder) error { e.PutBytes([]byte("back")); return nil })
				d.Release()
				if err != nil {
					return err
				}
			}
			m.mu.Lock()
			m.log = append(m.log, args.Int())
			m.inline = append(m.inline, lent)
			m.mu.Unlock()
			return args.Err()
		}).
		Method("slow", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			time.Sleep(time.Millisecond)
			return nil
		}).
		Method("busy", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			for start := time.Now(); time.Since(start) < memberBudget; {
			}
			return nil
		}).
		ConcurrentMethod("peek", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
			return nil
		})
}

// countMemberRuns counts, until the test ends, the collective members that
// run on a connection's reader.
func countMemberRuns(t *testing.T) *atomic.Int64 {
	n := new(atomic.Int64)
	memberRuns.Store(n)
	t.Cleanup(func() { memberRuns.Store(nil) })
	return n
}

// addMembers installs n members on srv.
func addMembers(t *testing.T, srv *Server, n int) ([]Ref, []*member) {
	t.Helper()
	refs, members := make([]Ref, n), make([]*member, n)
	for i := range refs {
		members[i] = &member{}
		ref, err := srv.AddObject("test.Member", members[i])
		if err != nil {
			t.Fatal(err)
		}
		entry, _ := srv.lookup(ref.Object, false)
		members[i].mb, refs[i] = entry.mb, ref
	}
	return refs, members
}

// noteAll sends note(seq) to every member as one collective.
func noteAll(ctx context.Context, c *Client, refs []Ref, seq int, opts ...CallOption) error {
	return FanOut(ctx, c, refs, "note", func(_ int, e *wire.Encoder) error { e.PutInt(seq); return nil }, nil, DefaultWindow, opts...)
}

// seenQuick sends one collective of note to refs, so that srv has seen the
// method, and then marks it quick, as a run that took under inlineQuick
// does: on a loaded machine, or under -race, a run may take longer. It
// returns the next sequence number.
func seenQuick(t *testing.T, srv *Server, c *Client, refs []Ref) int {
	t.Helper()
	if err := noteAll(bg, c, refs, 0); err != nil {
		t.Fatal(err)
	}
	recordOf(srv, "test.Member.note").quick.Store(true)
	return 1
}

// recordOf is the record of class.method on srv, nil if it was never
// called there.
func recordOf(srv *Server, name string) *methodRecord {
	for _, rec := range *srv.stats.Load() {
		if rec != nil && rec.Name == name {
			return rec
		}
	}
	return nil
}

// TestCollectiveMembersRunInline: after one warm-up collective, whose
// first member runs in its mailbox, the members of the following ones run
// on the reader — a collective's requests to one machine arrive in one
// read and form one reply group — while another client's asynchronous
// calls to the same objects, each by itself and so queued in the mailbox,
// are mixed in. A member's method never overlaps itself, and each caller's
// calls run in the order issued.
func TestCollectiveMembersRunInline(t *testing.T) {
	srv, a, tr := oneMachineOver(t)
	b := NewClient(tr, StaticDirectory{srv.Addr()})
	defer b.Close()
	runs := countMemberRuns(t)
	refs, members := addMembers(t, srv, 8)
	if err := noteAll(bg, a, refs, 0); err != nil {
		t.Fatal(err)
	}
	if members[0].inline[0] {
		t.Fatal("the first member of the first collective ran on the reader: its method was never seen")
	}
	runs.Store(0)

	// Each round marks note quick first, as a run that took under
	// inlineQuick does: under -race a run may take longer.
	rec := recordOf(srv, "test.Member.note")
	const rounds = 100
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds && errs[0] == nil; i++ {
			rec.quick.Store(true)
			errs[0] = noteAll(bg, a, refs, 1e6+i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds && errs[1] == nil; i++ {
			futs := make([]*Future, len(refs))
			for k, ref := range refs {
				futs[k] = b.CallAsync(bg, ref, "note", func(e *wire.Encoder) error { e.PutInt(2e6 + i); return nil })
			}
			errs[1] = WaitAll(bg, futs)
		}
	}()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	inline := 0
	for k, m := range members {
		if n := m.overlap.Load(); n != 0 {
			t.Errorf("member %d: note overlapped itself %d times", k, n)
		}
		if len(m.log) != 1+2*rounds {
			t.Fatalf("member %d ran %d notes, want %d", k, len(m.log), 1+2*rounds)
		}
		last := map[int]int{1: 0, 2: 0}
		for i, v := range m.log[1:] {
			caller, seq := v/1e6, v%1e6
			if seq <= last[caller] {
				t.Fatalf("member %d: caller %d's note %d ran after its note %d", k, caller, seq, last[caller])
			}
			last[caller] = seq
			if m.inline[1+i] {
				if caller != 1 {
					t.Fatalf("member %d: a call issued by itself ran on the reader", k)
				}
				inline++
			}
		}
	}
	t.Logf("%d of %d members ran on the reader", runs.Load(), len(refs)*rounds)
	if runs.Load() == 0 || int64(inline) != runs.Load() {
		t.Errorf("%d members counted on the reader, %d seen there by the method: want as many, and some", runs.Load(), inline)
	}
}

// TestBlockedMemberHandsItsGroupOn: a member that was quick blocks on the
// reader of a served TCP connection, its reply group still open. (It is
// the group's first: one ahead of it may use the reader's memberBudget,
// under -race always.) The watchdog hands the connection to a fresh
// reader, which carries on the group the blocked member joined: the
// members behind it run meanwhile, every member is answered once, the
// reply group leaves when the blocked one returns, and Drain returns. The
// watchdog's hand-off does not count as the method calling back.
func TestBlockedMemberHandsItsGroupOn(t *testing.T) {
	nodes, stop := startCluster(t, transport.TCP{}, 1)
	defer stop()
	srv, c := nodes[0].server, nodes[0].client
	refs, members := addMembers(t, srv, 8)
	seq := seenQuick(t, srv, c, refs)
	const blocked = 0
	answered := make([]atomic.Int64, len(refs))
	collect := func(i int, _ *wire.Decoder) error { answered[i].Add(1); return nil }

	// The blocked member may find its object still busy from the round
	// before, and run in its mailbox: the round is sent again until it
	// runs on the reader.
	var gate chan struct{}
	var done chan error
	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Fatal("in 20 rounds the blocking member never ran on the reader")
		}
		seq++
		recordOf(srv, "test.Member.note").quick.Store(true)
		for i := range answered {
			answered[i].Store(0)
		}
		gate, done = make(chan struct{}), make(chan error, 1)
		members[blocked].entered = make(chan struct{})
		members[blocked].gate.Store(&gate)
		go func(seq int) {
			done <- FanOut(bg, c, refs, "note", func(_ int, e *wire.Encoder) error { e.PutInt(seq); return nil }, collect, DefaultWindow)
		}(seq)
		<-members[blocked].entered
		if lentTurn(srv, refs[blocked].Object) {
			break
		}
		close(gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	ranBehind := func() bool {
		for _, m := range members[blocked+1:] {
			m.mu.Lock()
			n := len(m.log)
			ran := n > 0 && m.log[n-1] == seq
			m.mu.Unlock()
			if !ran {
				return false
			}
		}
		return true
	}
	waitUntil(t, ranBehind)
	select {
	case err := <-done:
		t.Fatalf("the collective returned (%v) while a member was blocked", err)
	default:
	}
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the group of the blocked member never answered")
	}
	for i := range answered {
		if n := answered[i].Load(); n != 1 {
			t.Errorf("member %d answered %d times", i, n)
		}
	}
	if recordOf(srv, "test.Member.note").callsOut.Load() != 0 {
		t.Error("the watchdog's hand-off counted as the method calling back")
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMemberCallingBackIsMarked: a member that was quick calls echo, from
// the reader, through the client its collective came from, on the same
// connection. That client frees the reader at once (handOffRun), so the
// collective completes within a few ticks, and the method, handed off on
// two runs in a row, is marked: from then on it runs in its mailbox, but
// for one request in callsOutRetry, which looks again. Once the method no
// longer calls back, the next look clears the mark.
func TestMemberCallingBackIsMarked(t *testing.T) {
	srv, c := oneMachine(t)
	runs := countMemberRuns(t)
	refs, members := addMembers(t, srv, 8)
	target, err := c.New(bg, 0, "test.Echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := seenQuick(t, srv, c, refs)
	for _, m := range members {
		m.back.Store(&callback{c: c, target: target})
	}
	rec := recordOf(srv, "test.Member.note")
	// A round whose members all find their objects busy runs none on the
	// reader, and leaves the method slow: it is sent again, quick. The
	// method is marked three times over, each from a clear count: under
	// -race a round now and then takes several ticks whatever runs it, so
	// the quickest of the three marking rounds is what is bounded.
	quickest := time.Hour
	for range 3 {
		rec.callsOut.Store(0)
		for round := 0; rec.callsOut.Load() < callsOutMark; round++ {
			if round == 20 {
				t.Fatal("in 20 rounds no member that called back ran on the reader twice")
			}
			rec.quick.Store(true)
			before := runs.Load()
			start := time.Now()
			if err := noteAll(bg, c, refs, seq); err != nil {
				t.Fatal(err)
			}
			seq++
			took := time.Since(start)
			t.Logf("a calling-back collective with %d members on the reader took %v (%.2f ticks)", runs.Load()-before, took, float64(took)/float64(inlineTick))
			if runs.Load() > before {
				quickest = min(quickest, took)
			}
		}
	}
	if quickest > 5*inlineTick {
		t.Errorf("the quickest marking collective took %v, over five ticks", quickest)
	}
	const rounds = 10
	before := runs.Load()
	for range rounds {
		rec.quick.Store(true)
		if err := noteAll(bg, c, refs, seq); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if n, most := runs.Load()-before, int64(rounds*len(refs)/callsOutRetry+1); n > most {
		t.Errorf("%d members of a marked method ran on the reader, want at most %d", n, most)
	}
	if rec.callsOut.Load() < callsOutMark {
		t.Error("a look on the reader cleared the mark of a method that still calls back")
	}

	for _, m := range members {
		m.back.Store(nil)
	}
	for round := 0; rec.callsOut.Load() != 0 || runs.Load() == before; round++ {
		if round == 2*callsOutRetry/len(refs)+2 {
			t.Fatalf("the mark of a method that no longer calls back held for %d rounds", round)
		}
		before = runs.Load()
		rec.quick.Store(true)
		if err := noteAll(bg, c, refs, seq); err != nil {
			t.Fatal(err)
		}
		seq++
	}
}

// TestMemberMarkByAnotherCallerWearsOff: requests of another goroutine of
// the same client, on the same connection, sent while a method runs on the
// reader, hand the reader off (handOffRun) as a callback would; they leave
// no lasting mark, and the method runs on the reader once they stop.
// "sync calls": one goroutine calls note synchronously (waited, each run
// on the reader when it can) while another sends asynchronous calls to
// another object. "blocked member": in each of several collectives a
// member blocks on the reader until another goroutine's request has
// handed it off.
func TestMemberMarkByAnotherCallerWearsOff(t *testing.T) {
	t.Run("sync calls", func(t *testing.T) {
		srv, c := oneMachine(t)
		refs, members := addMembers(t, srv, 2)
		note := func(ref Ref, seq int) error {
			d, err := c.Call(bg, ref, "note", func(e *wire.Encoder) error { e.PutInt(seq); return nil })
			d.Release()
			return err
		}
		var stop atomic.Bool
		done := make(chan error, 1)
		go func() {
			var err error
			for i := 0; !stop.Load() && err == nil; i++ {
				err = c.CallAsync(bg, refs[1], "note", func(e *wire.Encoder) error { e.PutInt(i); return nil }).Err(bg)
			}
			done <- err
		}()
		marked := 0
		for i := range 500 {
			if err := note(refs[0], i); err != nil {
				t.Fatal(err)
			}
			if recordOf(srv, "test.Member.note").callsOut.Load() >= callsOutMark {
				marked++
			}
		}
		stop.Store(true)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		t.Logf("note was marked after %d of 500 calls", marked)
		for i := range 2 * callsOutRetry {
			if err := note(refs[0], 500+i); err != nil {
				t.Fatal(err)
			}
		}
		m := members[0]
		m.mu.Lock()
		tail := m.inline[len(m.inline)-callsOutRetry/2:]
		m.mu.Unlock()
		if !slices.Contains(tail, true) {
			t.Errorf("none of the last %d calls of note ran on the reader", len(tail))
		}
		if n := recordOf(srv, "test.Member.note").callsOut.Load(); n >= callsOutMark {
			t.Errorf("note is still marked (callsOut %d)", n)
		}
	})

	t.Run("blocked member", func(t *testing.T) {
		srv, c := oneMachine(t)
		runs := countMemberRuns(t)
		refs, members := addMembers(t, srv, 9)
		refs, other := refs[:8], refs[8]
		seq := seenQuick(t, srv, c, refs)
		rec := recordOf(srv, "test.Member.note")
		handed := 0
		for round := range 5 {
			rec.quick.Store(true)
			gate, done := make(chan struct{}), make(chan error, 1)
			members[0].entered = make(chan struct{})
			members[0].gate.Store(&gate)
			go func(seq int) { done <- noteAll(bg, c, refs, seq) }(seq + round)
			<-members[0].entered
			if lentTurn(srv, refs[0].Object) {
				// The other goroutine's request, of no group, is sent
				// behind the collective's unanswered group.
				if err := c.CallAsync(bg, other, "note", func(e *wire.Encoder) error { e.PutInt(seq + round); return nil }).Err(bg); err != nil {
					t.Fatal(err)
				}
				handed++
			}
			close(gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if handed == 0 {
			t.Fatal("the blocking member never ran on the reader")
		}
		before := runs.Load()
		rec.quick.Store(true)
		if err := noteAll(bg, c, refs, seq+5); err != nil {
			t.Fatal(err)
		}
		if runs.Load() == before {
			t.Errorf("after %d collectives handed off by another caller's request, no member ran on the reader", handed)
		}
		if n := rec.callsOut.Load(); n >= callsOutMark {
			t.Errorf("note is marked (callsOut %d)", n)
		}
	})
}

// TestOnlyQuickMembersRunInline: nothing runs on the reader as a member
// for a method never seen on the server, a slow method, a concurrent
// method, or a collective with a deadline, whose requests join no group —
// the last three after note was seen and is quick. A quick method that
// takes the whole memberBudget runs one member a collective there.
func TestOnlyQuickMembersRunInline(t *testing.T) {
	ctx, cancel := context.WithTimeout(bg, time.Minute)
	defer cancel()
	t.Run("never seen", func(t *testing.T) {
		srv, c := oneMachine(t)
		refs, members := addMembers(t, srv, 8)
		if err := noteAll(bg, c, refs, 0); err != nil {
			t.Fatal(err)
		}
		// Members behind the first may find the method quick already.
		if members[0].inline[0] {
			t.Error("the first member of a method never seen ran on the reader")
		}
	})
	for _, tc := range []struct {
		name  string
		round func(c *Client, refs []Ref, seq int) error
	}{
		{"slow", func(c *Client, refs []Ref, _ int) error { return FanOut(bg, c, refs, "slow", nil, nil, DefaultWindow) }},
		{"concurrent", func(c *Client, refs []Ref, _ int) error { return FanOut(bg, c, refs, "peek", nil, nil, DefaultWindow) }},
		{"WithTimeout", func(c *Client, refs []Ref, seq int) error {
			return noteAll(bg, c, refs, seq, WithTimeout(time.Minute))
		}},
		{"context deadline", func(c *Client, refs []Ref, seq int) error { return noteAll(ctx, c, refs, seq) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, c := oneMachine(t)
			runs := countMemberRuns(t)
			refs, _ := addMembers(t, srv, 8)
			seq := seenQuick(t, srv, c, refs)
			before := runs.Load()
			for i := range 5 {
				recordOf(srv, "test.Member.note").quick.Store(true)
				if err := tc.round(c, refs, seq+i); err != nil {
					t.Fatal(err)
				}
			}
			if n := runs.Load() - before; n != 0 {
				t.Errorf("%d members ran on the reader", n)
			}
		})
	}
	t.Run("over the budget", func(t *testing.T) {
		srv, c := oneMachine(t)
		runs := countMemberRuns(t)
		refs, _ := addMembers(t, srv, 8)
		if err := FanOut(bg, c, refs, "busy", nil, nil, DefaultWindow); err != nil {
			t.Fatal(err)
		}
		const rounds = 10
		before := runs.Load()
		for range rounds {
			recordOf(srv, "test.Member.busy").quick.Store(true)
			if err := FanOut(bg, c, refs, "busy", nil, nil, DefaultWindow); err != nil {
				t.Fatal(err)
			}
		}
		if n := runs.Load() - before; n == 0 || n > rounds {
			t.Errorf("%d members of %d collectives ran on the reader, want one a collective at most, and some", n, rounds)
		}
	})
}
