package rmi

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryOverloadSucceedsAfterShed pins the happy path of
// WithRetryOverload: a call shed by a saturated class keeps retrying on
// the server's hint and lands once the queue drains — the caller never
// sees the overload.
func TestRetryOverloadSucceedsAfterShed(t *testing.T) {
	const cap = 2
	_, c, ref := newGateServer(t, AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: cap}})

	futs := saturate(t, c, ref, cap)
	before := c.counters.OverloadRetries.Load()

	done := make(chan error, 1)
	go func() {
		d, err := c.Call(bg, ref, "noop", nil, WithRetryOverload(200, 5*time.Millisecond))
		d.Release()
		done <- err
	}()
	// Let the retry loop bounce off the full class at least once before
	// opening the gate.
	time.Sleep(20 * time.Millisecond)
	release(t, c, ref, futs)
	if err := <-done; err != nil {
		t.Fatalf("retried call: %v", err)
	}
	if got := c.counters.OverloadRetries.Load() - before; got == 0 {
		t.Fatalf("OverloadRetries did not move; the call never hit the shed path")
	}
}

// TestRetryOverloadBudgetExhausted pins the failure shape: when the class
// never drains, the call burns its whole budget and surfaces the typed
// overload error; the retry counter records exactly budget re-issues.
func TestRetryOverloadBudgetExhausted(t *testing.T) {
	const cap, budget = 2, 3
	_, c, ref := newGateServer(t, AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: cap}})

	futs := saturate(t, c, ref, cap)
	before := c.counters.OverloadRetries.Load()
	_, err := c.Call(bg, ref, "noop", nil, WithRetryOverload(budget, 2*time.Millisecond))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retry budget: got %v, want ErrOverloaded", err)
	}
	if got := c.counters.OverloadRetries.Load() - before; got != budget {
		t.Fatalf("OverloadRetries moved by %d, want %d", got, budget)
	}
	release(t, c, ref, futs)
}

// TestRetryOverloadContextCancel pins that cancellation cuts the backoff
// wait short instead of sleeping it out.
func TestRetryOverloadContextCancel(t *testing.T) {
	const cap = 2
	_, c, ref := newGateServer(t, AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: cap}})

	futs := saturate(t, c, ref, cap)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A huge budget with long waits: only cancellation can end this.
		_, err := c.Call(ctx, ref, "noop", nil, WithRetryOverload(1_000_000, time.Hour))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled retry: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled retry loop never returned")
	}
	release(t, c, ref, futs)
}

// TestRetryOverloadNeverOnNew pins the idempotency guard: construction is
// never re-issued, even when the caller passes WithRetryOverload — a
// duplicate New could leak a second process.
func TestRetryOverloadNeverOnNew(t *testing.T) {
	const cap = 2
	_, c, ref := newGateServer(t, AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: cap}})

	futs := saturate(t, c, ref, cap)
	before := c.counters.OverloadRetries.Load()
	start := time.Now()
	_, err := c.New(bg, 0, "test.Gate", nil, WithRetryOverload(100, 50*time.Millisecond))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("New into full class: got %v, want ErrOverloaded", err)
	}
	// No retries: the failure is immediate (well under one backoff step)
	// and the retry counter does not move.
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("New appears to have retried: took %v", took)
	}
	if got := c.counters.OverloadRetries.Load() - before; got != 0 {
		t.Fatalf("New moved OverloadRetries by %d, want 0", got)
	}
	release(t, c, ref, futs)
}

// TestOverloadBackoff covers the wait derivation: server hints are
// honored with bounded jitter, the no-hint fallback grows exponentially,
// and maxWait caps both.
func TestOverloadBackoff(t *testing.T) {
	hinted := &OverloadedError{Machine: 0, Priority: PrioNormal, RetryAfter: 20 * time.Millisecond}
	for i := 0; i < 50; i++ {
		w := overloadBackoff(hinted, 0, 0)
		if w < 15*time.Millisecond || w > 25*time.Millisecond {
			t.Fatalf("hinted backoff %v outside ±25%% of 20ms", w)
		}
	}
	// Fallback: attempt 0 jitters around 5ms, attempt 3 around 40ms —
	// the ranges must not overlap (growth is observable through jitter).
	for i := 0; i < 50; i++ {
		w0 := overloadBackoff(errors.New("no hint"), 0, 0)
		w3 := overloadBackoff(errors.New("no hint"), 3, 0)
		if w0 > 7*time.Millisecond {
			t.Fatalf("fallback attempt 0 backoff %v, want <= 6.25ms", w0)
		}
		if w3 < 30*time.Millisecond {
			t.Fatalf("fallback attempt 3 backoff %v, want >= 30ms", w3)
		}
	}
	// The cap binds hints and fallback alike.
	if w := overloadBackoff(hinted, 0, time.Millisecond); w > time.Millisecond {
		t.Fatalf("capped hinted backoff %v, want <= 1ms", w)
	}
	if w := overloadBackoff(errors.New("no hint"), 9, time.Millisecond); w > time.Millisecond {
		t.Fatalf("capped fallback backoff %v, want <= 1ms", w)
	}
}
