package rmi_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
)

// TestDrainTimeoutLeaksNoGoroutine: a Drain that its context ends leaves
// nothing behind, however long the work it waited for stays stuck. A
// serve.Work wait call holds the machine's one drain token while three
// Drains time out; the goroutine count is back where it was before the
// gate opens.
func TestDrainTimeoutLeaksNoGoroutine(t *testing.T) {
	bg := context.Background()
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := rmi.NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	c := rmi.NewClient(tr, rmi.StaticDirectory{srv.Addr()})
	defer c.Close()
	ref, err := c.New(bg, 0, serve.ClassWork, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wait := c.CallAsync(bg, ref, "wait", nil)
	for srv.QueueDepths()[rmi.PrioNormal] != 1 {
		time.Sleep(time.Millisecond)
	}
	baseline := runtime.NumGoroutine()

	for i := range 3 {
		ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
		err := srv.Drain(ctx)
		cancel()
		if err == nil {
			t.Fatalf("drain %d returned with the wait call in flight", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after three timed-out drains, %d before them", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}

	obj, ok := srv.Object(ref.Object)
	if !ok {
		t.Fatal("the work object vanished")
	}
	obj.(*serve.Work).Open()
	if err := wait.Err(bg); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := srv.Drain(bg); err != nil {
		t.Fatalf("drain once the wait returned: %v", err)
	}
}
