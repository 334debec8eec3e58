package metrics

import (
	"sync"
	"testing"
)

func TestSnapshotAndSub(t *testing.T) {
	var c Counters
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
	var c Counters
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
