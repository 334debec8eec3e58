package transport

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"oopp/internal/wire"
)

// forEachTransport runs f against every transport implementation.
func forEachTransport(t *testing.T, f func(t *testing.T, tr Transport)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) { f(t, NewInproc(LinkModel{})) })
	t.Run("tcp", func(t *testing.T) { f(t, TCP{}) })
}

func startEcho(t testing.TB, tr Transport) (addr string, stop func()) {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(msg); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr(), func() {
		l.Close()
		wg.Wait()
	}
}

func TestEchoRoundTrip(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()

		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()

		payloads := [][]byte{
			{},
			[]byte("x"),
			bytes.Repeat([]byte("abc"), 10000),
		}
		for _, p := range payloads {
			// Send takes ownership of its argument: keep a private copy to
			// compare against.
			want := append([]byte(nil), p...)
			if err := c.Send(p); err != nil {
				t.Fatalf("send: %v", err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(want))
			}
			ReleaseFrame(got)
		}
	})
}

func TestMessageBoundariesPreserved(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()
		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()

		// Pipeline 50 distinct messages, then read 50 echoes; framing must
		// keep them distinct and ordered.
		const n = 50
		for i := 0; i < n; i++ {
			if err := c.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if want := fmt.Sprintf("msg-%04d", i); string(got) != want {
				t.Fatalf("message %d: got %q want %q", i, got, want)
			}
		}
	})
}

func TestSendTransfersOwnership(t *testing.T) {
	// The pooled round trip: a frame from GetFrame, handed to Send (which
	// takes ownership), echoes back intact; the received frame is released
	// to the pool. This is the steady-state lifecycle of every RMI frame.
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()
		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()

		for i := 0; i < 20; i++ {
			frame := GetFrame(100)
			for j := range frame {
				frame[j] = byte(i + j)
			}
			want := append([]byte(nil), frame...)
			if err := c.Send(frame); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: frame corrupted in flight", i)
			}
			ReleaseFrame(got)
		}
	})
}

func TestInprocSendIsZeroCopy(t *testing.T) {
	// The whole point of the ownership-transfer contract on inproc: the
	// receiver gets the sender's very slice, with no memcpy.
	tr := NewInproc(LinkModel{})
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	msg := []byte("zero-copy")
	if err := client.Send(msg); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if &got[0] != &msg[0] {
		t.Fatal("inproc Send copied the frame; ownership transfer should pass the slice through")
	}
}

func TestSendBurstFramingEquivalence(t *testing.T) {
	// n messages sent as one burst must be indistinguishable on the far
	// side from the same n sent one by one — same boundaries, same order,
	// every message passed on — on both transports. The echo sends each
	// back as it got it.
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()
		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()

		long := bytes.Repeat([]byte("z"), 5*readAhead/2)
		cases := [][][]byte{
			{[]byte("hdr"), []byte("payload")},
			{{}, []byte("behind-an-empty-one"), {}},
			{[]byte("a"), []byte("b"), []byte("c"), long, []byte("d")},
			{},
			{[]byte("solo")},
			{long, long[:readAhead-4], long[:readAhead-3], []byte("e")},
		}
		for i, msgs := range cases {
			burst := make([]Frame, len(msgs))
			for j, m := range msgs {
				burst[j].Head = append(GetFrame(0), m...) // SendBurst takes ownership
			}
			if err := c.SendBurst(burst); err != nil {
				t.Fatalf("case %d: SendBurst: %v", i, err)
			}
			for j, m := range msgs {
				if err := c.Send(append(GetFrame(0), m...)); err != nil {
					t.Fatalf("case %d: Send %d: %v", i, j, err)
				}
			}
			for pass, how := range []string{"burst", "one by one"} {
				for j, want := range msgs {
					got, err := c.Recv()
					if err != nil {
						t.Fatalf("case %d, %s: recv %d: %v", i, how, j, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("case %d, %s (pass %d): message %d is %d bytes, want %d; differ", i, how, pass, j, len(got), len(want))
					}
					ReleaseFrame(got)
				}
			}
		}
	})
}

func TestInprocCloseDrainsQueuedMessages(t *testing.T) {
	// Orderly shutdown: messages already delivered to the connection must
	// all be receivable after Close — the close-race drain loops until the
	// queue is empty instead of dropping everything past the first.
	tr := NewInproc(LinkModel{})
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := client.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	client.Close()
	for i := 0; i < n; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d after close: %v (dropped %d queued messages)", i, err, n-i)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("recv %d: got %v", i, got)
		}
	}
	if _, err := server.Recv(); err != ErrClosed {
		t.Fatalf("recv after drain: %v, want ErrClosed", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()

		const clients = 8
		const msgs = 40
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c, err := tr.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for j := 0; j < msgs; j++ {
					want := fmt.Sprintf("c%d-%d", id, j)
					if err := c.Send([]byte(want)); err != nil {
						errs <- err
						return
					}
					got, err := c.Recv()
					if err != nil {
						errs <- err
						return
					}
					if string(got) != want {
						errs <- fmt.Errorf("client %d: got %q want %q", id, got, want)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

func TestDialUnknownAddress(t *testing.T) {
	tr := NewInproc(LinkModel{})
	if _, err := tr.Dial("nowhere"); err == nil {
		t.Fatal("expected error dialing unknown inproc address")
	}
}

func TestListenDuplicateAddress(t *testing.T) {
	tr := NewInproc(LinkModel{})
	l, err := tr.Listen("dup")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	if _, err := tr.Listen("dup"); err == nil {
		t.Fatal("expected duplicate address error")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport) {
		l, err := tr.Listen("")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := l.Accept()
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		l.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Accept returned nil error after Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Accept did not unblock after Close")
		}
	})
}

func TestConnCloseUnblocksRecv(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()
		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.Recv()
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		c.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Recv returned nil after Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv did not unblock after Close")
		}
	})
}

func TestInprocListenerCloseReleasesAddress(t *testing.T) {
	tr := NewInproc(LinkModel{})
	l, err := tr.Listen("a")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l.Close()
	l2, err := tr.Listen("a")
	if err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	l2.Close()
}

func TestLinkModelTransferTime(t *testing.T) {
	m := LinkModel{Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	if got := m.TransferTime(0); got != time.Millisecond {
		t.Fatalf("latency-only transfer: %v", got)
	}
	// 1 MB at 1 MB/s = 1s + 1ms latency.
	if got := m.TransferTime(1e6); got != time.Second+time.Millisecond {
		t.Fatalf("1MB transfer: %v", got)
	}
	if !(LinkModel{}).IsZero() {
		t.Fatal("zero model should be zero")
	}
	if m.IsZero() {
		t.Fatal("non-zero model reported zero")
	}
}

func TestLinkModelImposesLatency(t *testing.T) {
	const lat = 2 * time.Millisecond
	tr := NewInproc(LinkModel{Latency: lat})
	addr, stop := startEcho(t, tr)
	defer stop()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	start := time.Now()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := c.Send([]byte("ping")); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	elapsed := time.Since(start)
	// Each round trip crosses the link twice.
	if min := time.Duration(rounds) * 2 * lat; elapsed < min {
		t.Fatalf("round trips too fast for modeled link: %v < %v", elapsed, min)
	}
}

func TestTCPRejectsOversizedFrame(t *testing.T) {
	tr := TCP{}
	addr, stop := startEcho(t, tr)
	defer stop()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	huge := make([]byte, maxFrame+1)
	if err := c.Send(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("an oversized frame sent: %v, want ErrFrameTooLarge", err)
	}
	// Head and tail count together, and a burst with an oversized frame in
	// it writes nothing, not even what comes before.
	pair := []Frame{{Head: []byte("before")}, {Head: GetFrame(1), Tail: huge[:maxFrame]}}
	if err := c.SendBurst(pair); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("an oversized head and tail sent: %v, want ErrFrameTooLarge", err)
	}
	if err := c.Send([]byte("after")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if msg, err := c.Recv(); err != nil || string(msg) != "after" {
		t.Fatalf("after a refused burst the echo is %q (%v), want \"after\"", msg, err)
	}
}

// TestBorrowedTail: a frame whose tail is borrowed arrives as the one
// message its head and tail make — the bytes of the frame an encoder makes
// by copying the values in — between the short frames sent before and after
// it in the same burst, on both transports, whether it is short enough to
// be joined with them or not. The tail is the sender's again when
// SendBurst returns: what it writes there afterwards does not arrive.
func TestBorrowedTail(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()
		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		for _, n := range []int{100, 5 * readAhead / 8 / 2} { // joined, written from where it lies
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i) - 0.5
			}
			e := wire.GetEncoder(16)
			e.PutInt(n)
			e.PutFloat64s(vals)
			want := e.Detach()
			e.PutInt(n)
			e.BorrowFloat64s(vals, nil)
			head, tail, _ := e.DetachFrame()
			wire.PutEncoder(e)
			if tail == nil {
				t.Fatal("nothing borrowed")
			}
			burst := []Frame{
				{Head: append(GetFrame(0), "first"...)},
				{Head: head, Tail: tail},
				{Head: append(GetFrame(0), "last"...)},
			}
			if err := c.SendBurst(burst); err != nil {
				t.Fatalf("%d values: SendBurst: %v", n, err)
			}
			clear(vals)
			for i, w := range [][]byte{[]byte("first"), want, []byte("last")} {
				got, err := c.Recv()
				if err != nil {
					t.Fatalf("%d values: recv %d: %v", n, i, err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("%d values: message %d is %d bytes, want %d; differ", n, i, len(got), len(w))
				}
				ReleaseFrame(got)
			}
		}
	})
}

// TestBurst: a burst sends what it gathered, in order, in one SendBurst,
// and afterwards refers to none of it; a message too long to be a frame is
// refused by itself, typed, and what was gathered before it stays; and
// room runs out where the receiver's read-ahead buffer would.
func TestBurst(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport) {
		addr, stop := startEcho(t, tr)
		defer stop()
		c, err := tr.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		var b Burst
		longTail := make([]byte, maxFrame)
		for pass := range 2 { // the second reuses the first's storage
			for i := range 3 {
				if room, err := b.Add(Frame{Head: append(GetFrame(0), byte(pass), byte(i))}); !room || err != nil {
					t.Fatalf("pass %d: message %d: room %v, %v", pass, i, room, err)
				}
			}
			if _, err := b.Add(Frame{Head: make([]byte, maxFrame+1)}); !errors.Is(err, ErrFrameTooLarge) {
				t.Errorf("pass %d: a message too long gathered: %v", pass, err)
			}
			if _, err := b.Add(Frame{Head: GetFrame(1), Tail: longTail}); !errors.Is(err, ErrFrameTooLarge) {
				t.Errorf("pass %d: a head and tail too long together gathered: %v", pass, err)
			}
			if len(b.frames) != 3 || !bytes.Equal(b.Last(), []byte{byte(pass), 2}) {
				t.Errorf("pass %d: after the refusal %d gathered, the last %v", pass, len(b.frames), b.Last())
			}
			if err := b.Flush(c); err != nil {
				t.Fatalf("pass %d: flush: %v", pass, err)
			}
			if b.Last() != nil || b.bytes != 0 || slices.ContainsFunc(b.frames[:cap(b.frames)], func(f Frame) bool { return f.Head != nil || f.Tail != nil }) {
				t.Errorf("pass %d: a flushed burst still refers to a message", pass)
			}
			for i := range 3 {
				if msg, err := c.Recv(); err != nil || !bytes.Equal(msg, []byte{byte(pass), byte(i)}) {
					t.Fatalf("pass %d: echo %d is %v (%v)", pass, i, msg, err)
				}
			}
		}
		if err := b.Flush(c); err != nil {
			t.Errorf("an empty flush: %v", err)
		}
		if room, _ := b.Add(Frame{Head: GetFrame(readAhead - 2*frameHeader - 1)}); !room {
			t.Errorf("no room after a message with room for a header and a byte more")
		}
		if room, _ := b.Add(Frame{Head: GetFrame(1)}); room {
			t.Errorf("room after the read-ahead buffer is full")
		}
		if err := b.Flush(c); err != nil {
			t.Fatalf("flush: %v", err)
		}
		// A frame with a tail must leave before its lender changes the tail.
		if room, _ := b.Add(Frame{Head: GetFrame(1), Tail: []byte{1}}); room {
			t.Errorf("room after a frame with a tail")
		}
		if err := b.Flush(c); err != nil {
			t.Fatalf("flush: %v", err)
		}
		for range 3 {
			if _, err := c.Recv(); err != nil {
				t.Fatalf("recv: %v", err)
			}
		}
	})
}

func BenchmarkInprocRoundTrip(b *testing.B) {
	tr := NewInproc(LinkModel{})
	benchRoundTrip(b, tr)
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	benchRoundTrip(b, TCP{})
}

// BenchmarkTCPBurst is a collective's issue burst and its replies at the
// transport: 16 frames of 64 B sent in one SendBurst, echoed one by one,
// received. One iteration is one burst each way.
func BenchmarkTCPBurst(b *testing.B) {
	const burst, size = 16, 64
	tr := TCP{}
	addr, stop := startEcho(b, tr)
	defer stop()
	c, err := tr.Dial(addr)
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer c.Close()
	msgs := make([]Frame, burst)
	for i := range msgs {
		msgs[i].Head = GetFrame(size)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The echoed frames are the next burst's buffers.
		if err := c.SendBurst(msgs); err != nil {
			b.Fatal(err)
		}
		for j := range msgs {
			if msgs[j].Head, err = c.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchRoundTrip(b *testing.B, tr Transport) {
	l, err := tr.Listen("")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer c.Close()
	msg := GetFrame(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ownership round trip: Send consumes the frame, the echoed frame
		// received back becomes the next send's buffer.
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			b.Fatal(err)
		}
		msg = got
	}
}
