package metrics

import (
	"strings"
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
	c.CallsIssued.Add(2)
	delta := c.Snapshot().Sub(before)
	if delta.MessagesSent != 5 {
		t.Errorf("MessagesSent delta = %d, want 5", delta.MessagesSent)
	}
	if delta.BytesSent != 50 {
		t.Errorf("BytesSent delta = %d, want 50", delta.BytesSent)
	}
	if delta.CallsIssued != 2 {
		t.Errorf("CallsIssued delta = %d, want 2", delta.CallsIssued)
	}
	if delta.MessagesRecv != 0 {
		t.Errorf("MessagesRecv delta = %d, want 0", delta.MessagesRecv)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.MessagesSent.Add(1)
	c.DiskReads.Add(3)
	c.ObjectsTotal.Add(2)
	c.Reset()
	s := c.Snapshot()
	if s != (Snapshot{}) {
		t.Errorf("after reset: %+v", s)
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
				c.CallsIssued.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.CallsIssued.Load(); got != workers*perWorker {
		t.Errorf("CallsIssued = %d, want %d", got, workers*perWorker)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{}
	if s.String() != "{}" {
		t.Errorf("empty snapshot string: %q", s.String())
	}
	s.MessagesSent = 3
	s.DiskReads = 1
	str := s.String()
	if !strings.Contains(str, "msgsSent=3") || !strings.Contains(str, "diskR=1") {
		t.Errorf("snapshot string missing fields: %q", str)
	}
	if strings.Contains(str, "bytesSent") {
		t.Errorf("snapshot string shows zero field: %q", str)
	}
}
