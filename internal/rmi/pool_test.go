package rmi

import (
	"fmt"
	"sync"
	"testing"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// ---- mailbox ring buffer -------------------------------------------------

// capacity reports the ring size, for the shrink tests.
func (m *mailbox) capacity() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.buf)
}

func TestMailboxFIFOBatch(t *testing.T) {
	m := newMailbox()
	const n = 100
	got := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		if !m.push(funcTask(func() { got = append(got, i) })) {
			t.Fatalf("push %d refused", i)
		}
	}
	m.close()
	m.run()
	if len(got) != n {
		t.Fatalf("ran %d tasks, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("task %d ran out of order (got id %d)", i, v)
		}
	}
}

func TestMailboxWrapAround(t *testing.T) {
	// Interleave pushes and pops so head wraps the ring repeatedly.
	m := newMailbox()
	var ran int
	var dst [4]task
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			m.push(funcTask(func() { ran++ }))
		}
		k, ok := m.popBatch(dst[:])
		if !ok {
			t.Fatal("mailbox reported closed")
		}
		for i := 0; i < k; i++ {
			dst[i].run()
		}
	}
	m.close()
	m.run()
	if ran != 150 {
		t.Fatalf("ran %d tasks, want 150", ran)
	}
}

func TestMailboxShrinksAfterBurst(t *testing.T) {
	// Regression: the old slice-window queue (append + queue[1:]) kept its
	// high-water backing array forever. The ring must give the memory back
	// once a burst drains.
	m := newMailbox()
	const burst = 10000
	for i := 0; i < burst; i++ {
		m.push(funcTask(func() {}))
	}
	highWater := m.capacity()
	if highWater < burst {
		t.Fatalf("capacity %d did not grow to hold the burst", highWater)
	}
	var dst [64]task
	drained := 0
	for drained < burst {
		k, ok := m.popBatch(dst[:])
		if !ok {
			t.Fatal("mailbox closed prematurely")
		}
		drained += k
	}
	if c := m.capacity(); c > mailboxShrinkCap {
		t.Fatalf("capacity after drain = %d, want <= %d (high water was %d)", c, mailboxShrinkCap, highWater)
	}
	// And it keeps working after shrinking.
	ran := false
	m.push(funcTask(func() { ran = true }))
	m.close()
	m.run()
	if !ran {
		t.Fatal("task pushed after shrink did not run")
	}
}

func TestMailboxCloseStillDrainsQueued(t *testing.T) {
	m := newMailbox()
	ran := 0
	for i := 0; i < 10; i++ {
		m.push(funcTask(func() { ran++ }))
	}
	m.close()
	if m.push(funcTask(func() { ran += 100 })) {
		t.Fatal("push accepted after close")
	}
	m.run()
	if ran != 10 {
		t.Fatalf("ran %d queued tasks after close, want 10", ran)
	}
}

// ---- pooled frames under concurrency ------------------------------------

// TestPooledFramesConcurrentCallAsync hammers one server from many
// goroutines mixing synchronous Calls and CallAsync futures, with results
// decoded and released concurrently. Run under -race this is the safety
// net for the frame/encoder/decoder recycling added to the hot path: any
// frame released while still referenced shows up as a data race or a
// corrupted echo.
func TestPooledFramesConcurrentCallAsync(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport.Transport) {
		nodes, shutdown := startCluster(t, tr, 2)
		defer shutdown()
		client := nodes[0].client

		ref, err := client.New(bg, 1, "test.Echo", nil)
		if err != nil {
			t.Fatal(err)
		}

		const workers = 8
		const calls = 60
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				payload := make([]byte, 256)
				for i := range payload {
					payload[i] = byte(w)
				}
				args := func(e *wire.Encoder) error {
					e.PutBytes(payload)
					return nil
				}
				check := func(d *wire.Decoder) error {
					defer d.Release()
					got := d.BytesView()
					if err := d.Err(); err != nil {
						return err
					}
					if len(got) != len(payload) {
						return fmt.Errorf("echo length %d, want %d", len(got), len(payload))
					}
					for _, b := range got {
						if b != byte(w) {
							return fmt.Errorf("worker %d: echo corrupted (got byte %d): pooled frame crossed calls", w, b)
						}
					}
					return nil
				}
				for i := 0; i < calls; i++ {
					if i%3 == 0 {
						fut := client.CallAsync(bg, ref, "echo", args)
						d, err := fut.Wait(bg)
						if err != nil {
							errCh <- err
							return
						}
						if err := check(d); err != nil {
							errCh <- err
							return
						}
					} else {
						d, err := client.Call(bg, ref, "echo", args)
						if err != nil {
							errCh <- err
							return
						}
						if err := check(d); err != nil {
							errCh <- err
							return
						}
					}
				}
				errCh <- nil
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		}
	})
}

// handleEcho is an echo declared through a handle, for the handle form of
// TestSyncCallSteadyStateAllocs.
type handleEcho struct{}

var handleEchoClass = RegisterClass("test.HandleEcho", wire.Void, func(*Env, struct{}) (*handleEcho, error) { return &handleEcho{}, nil })

var (
	handleEchoEcho = handleEchoClass.Declare("echo", func(_ *handleEcho, _ *Env, args *wire.Decoder, reply *wire.Encoder) error {
		reply.PutBytes(args.Bytes())
		return nil
	})
	handleEchoInc = DeclareOp(handleEchoClass, "inc", wire.Int, wire.Int, func(_ *handleEcho, _ *Env, n int) (int, error) {
		return n + 1, nil
	})
)

// TestSyncCallSteadyStateAllocs pins, at the unit level, what each way to
// wait costs on a warmed-up round trip over inproc. The synchronous one
// allocates nothing — request frame, response frame, decoder, encoder,
// waiter and mailbox task all recycle — and the fence is as tight as E1's
// pin: no whole allocation; a call through a method handle is the same
// call. The asynchronous one costs its Future and the Future's channel,
// which is why Call is not CallAsync + Wait.
func TestSyncCallSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	nodes, shutdown := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer shutdown()
	client := nodes[0].client

	ref, err := client.New(bg, 1, "test.Echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	href, err := client.New(bg, 1, "test.HandleEcho", nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	args := func(e *wire.Encoder) error {
		e.PutBytes(payload)
		return nil
	}
	for _, form := range []struct {
		name    string
		ceiling float64 // allocs per op, whole ones
		call    func() error
	}{
		{"Call", 0, func() error {
			d, err := client.Call(bg, ref, "echo", args)
			d.Release()
			return err
		}},
		{"Method.Call", 0, func() error {
			d, err := handleEchoEcho.Call(bg, client, href, args)
			d.Release()
			return err
		}},
		{"CallAsync, Wait, Release", 2, func() error {
			fut := client.CallAsync(bg, ref, "echo", args)
			_, err := fut.Wait(bg)
			fut.Release()
			return err
		}},
		{"Op.Call", 0, func() error {
			n, err := handleEchoInc.Call(bg, client, href, 41)
			if err == nil && n != 42 {
				err = fmt.Errorf("inc(41) = %d", n)
			}
			return err
		}},
		{"Op.CallAsync, Wait", 2, func() error {
			_, err := handleEchoInc.CallAsync(bg, client, href, 41).Wait(bg)
			return err
		}},
	} {
		call := func() {
			if err := form.call(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ { // warm every pool in the chain
			call()
		}
		// The server side runs on other goroutines, so scheduling noise can
		// leak a fraction of an allocation into the average; a whole one is
		// an allocation a call (the pre-pooling baseline was 15).
		if allocs := testing.AllocsPerRun(200, call); allocs >= form.ceiling+1 {
			t.Errorf("steady-state %s allocates %.2f times per op, want < %.0f", form.name, allocs, form.ceiling+1)
		}
	}
}
