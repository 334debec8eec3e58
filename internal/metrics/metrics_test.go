package metrics

import (
	"sync"
	"testing"
)

func TestSnapshotAndSub(t *testing.T) {
	var c Registry
	c.MessagesSent.Add(10)
	c.BytesSent.Add(100)
	before := c.Snapshot()
	c.MessagesSent.Add(5)
	c.BytesSent.Add(50)
	c.ReqShed.Add(2)
	delta := c.Snapshot().Sub(before)
	if delta.MessagesSent != 5 {
		t.Errorf("MessagesSent delta = %d, want 5", delta.MessagesSent)
	}
	if delta.BytesSent != 50 {
		t.Errorf("BytesSent delta = %d, want 50", delta.BytesSent)
	}
	if delta.ReqShed != 2 {
		t.Errorf("ReqShed delta = %d, want 2", delta.ReqShed)
	}
	if delta.DiskReads != 0 {
		t.Errorf("DiskReads delta = %d, want 0", delta.DiskReads)
	}
}

func TestConcurrentCounting(t *testing.T) {
	var c Registry
	var wg sync.WaitGroup
	const workers = 16
	const perWorker = 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.MessagesSent.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.MessagesSent.Load(); got != workers*perWorker {
		t.Errorf("MessagesSent = %d, want %d", got, workers*perWorker)
	}
}

// Default sums every registry, and a closed one stays in the sum: a
// delta across a machine's shutdown never goes back.
func TestDefaultSumsLiveAndClosed(t *testing.T) {
	before := Default.Snapshot()
	a, b := NewRegistry(), NewRegistry()
	a.MessagesSent.Add(3)
	b.MessagesSent.Add(4)
	b.DiskReads.Add(1)
	if d := Default.Snapshot().Sub(before); d.MessagesSent != 7 || d.DiskReads != 1 {
		t.Fatalf("live sum: %+v, want 7 messages and 1 disk read", d)
	}
	a.Close()
	a.Close()
	a.MessagesSent.Add(100) // after Close: a's alone
	if d := Default.Snapshot().Sub(before); d.MessagesSent != 7 {
		t.Fatalf("after close: %d messages, want 7", d.MessagesSent)
	}
	b.Close()
	if d := Default.Snapshot().Sub(before); d.MessagesSent != 7 || d.DiskReads != 1 {
		t.Fatalf("all closed: %+v, want 7 messages and 1 disk read", d)
	}
}
