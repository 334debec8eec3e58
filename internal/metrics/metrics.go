// Package metrics provides lightweight instrumentation for the OOPP
// runtime. The experiment harness uses it to report the quantities the
// paper reasons about — number of client-server messages, bytes moved,
// remote calls issued — alongside wall-clock time.
//
// All counters are safe for concurrent use.
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Counters aggregates the runtime's communication counters. The zero value
// is ready to use.
type Counters struct {
	MessagesSent    atomic.Int64 // frames handed to the transport
	MessagesRecv    atomic.Int64 // frames received from the transport
	BytesSent       atomic.Int64 // payload bytes sent
	BytesRecv       atomic.Int64 // payload bytes received
	CallsIssued     atomic.Int64 // remote method invocations started
	CallsServed     atomic.Int64 // remote method invocations executed
	ObjectsLive     atomic.Int64 // remote objects currently alive
	ObjectsTotal    atomic.Int64 // remote objects ever constructed
	DiskReads       atomic.Int64 // simulated disk read operations
	DiskWrites      atomic.Int64 // simulated disk write operations
	DiskBytesRead   atomic.Int64
	DiskBytesWrit   atomic.Int64
	RespDropped     atomic.Int64 // response frames with unparseable headers, discarded
	RespOrphaned    atomic.Int64 // responses to abandoned (canceled/timed-out) requests
	DialRetries     atomic.Int64 // redials performed under the WithRetryDial call option
	OverloadRetries atomic.Int64 // call re-issues under the WithRetryOverload call option
	ReqAdmitted     atomic.Int64 // requests accepted by server admission control
	ReqShed         atomic.Int64 // requests rejected at admission (ErrOverloaded)
	QueueHigh       atomic.Int64 // gauge: in-flight high-priority requests (admission to reply)
	QueueNormal     atomic.Int64 // gauge: in-flight normal-priority requests
	QueueBulk       atomic.Int64 // gauge: in-flight bulk-priority requests
	ReqExpired      atomic.Int64 // admitted requests shed because the client deadline had passed
	PagesHeld       atomic.Int64 // gauge: pages this process's devices hold per the live map
	PagesMigrated   atomic.Int64 // pages moved device-to-device by the migration engine
	BytesMigrated   atomic.Int64 // payload bytes moved by the migration engine
}

// Default is the process-wide counter set used when no explicit set is
// wired through.
var Default = &Counters{}

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	MessagesSent    int64
	MessagesRecv    int64
	BytesSent       int64
	BytesRecv       int64
	CallsIssued     int64
	CallsServed     int64
	ObjectsLive     int64
	ObjectsTotal    int64
	DiskReads       int64
	DiskWrites      int64
	DiskBytesRead   int64
	DiskBytesWrit   int64
	RespDropped     int64
	RespOrphaned    int64
	DialRetries     int64
	OverloadRetries int64
	ReqAdmitted     int64
	ReqShed         int64
	QueueHigh       int64
	QueueNormal     int64
	QueueBulk       int64
	ReqExpired      int64
	PagesHeld       int64
	PagesMigrated   int64
	BytesMigrated   int64
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		MessagesSent:    c.MessagesSent.Load(),
		MessagesRecv:    c.MessagesRecv.Load(),
		BytesSent:       c.BytesSent.Load(),
		BytesRecv:       c.BytesRecv.Load(),
		CallsIssued:     c.CallsIssued.Load(),
		CallsServed:     c.CallsServed.Load(),
		ObjectsLive:     c.ObjectsLive.Load(),
		ObjectsTotal:    c.ObjectsTotal.Load(),
		DiskReads:       c.DiskReads.Load(),
		DiskWrites:      c.DiskWrites.Load(),
		DiskBytesRead:   c.DiskBytesRead.Load(),
		DiskBytesWrit:   c.DiskBytesWrit.Load(),
		RespDropped:     c.RespDropped.Load(),
		RespOrphaned:    c.RespOrphaned.Load(),
		DialRetries:     c.DialRetries.Load(),
		OverloadRetries: c.OverloadRetries.Load(),
		ReqAdmitted:     c.ReqAdmitted.Load(),
		ReqShed:         c.ReqShed.Load(),
		QueueHigh:       c.QueueHigh.Load(),
		QueueNormal:     c.QueueNormal.Load(),
		QueueBulk:       c.QueueBulk.Load(),
		ReqExpired:      c.ReqExpired.Load(),
		PagesHeld:       c.PagesHeld.Load(),
		PagesMigrated:   c.PagesMigrated.Load(),
		BytesMigrated:   c.BytesMigrated.Load(),
	}
}

// Reset zeroes every counter.
func (c *Counters) Reset() {
	c.MessagesSent.Store(0)
	c.MessagesRecv.Store(0)
	c.BytesSent.Store(0)
	c.BytesRecv.Store(0)
	c.CallsIssued.Store(0)
	c.CallsServed.Store(0)
	c.ObjectsLive.Store(0)
	c.ObjectsTotal.Store(0)
	c.DiskReads.Store(0)
	c.DiskWrites.Store(0)
	c.DiskBytesRead.Store(0)
	c.DiskBytesWrit.Store(0)
	c.RespDropped.Store(0)
	c.RespOrphaned.Store(0)
	c.DialRetries.Store(0)
	c.OverloadRetries.Store(0)
	c.ReqAdmitted.Store(0)
	c.ReqShed.Store(0)
	c.QueueHigh.Store(0)
	c.QueueNormal.Store(0)
	c.QueueBulk.Store(0)
	c.ReqExpired.Store(0)
	c.PagesHeld.Store(0)
	c.PagesMigrated.Store(0)
	c.BytesMigrated.Store(0)
}

// Sub returns the delta s - prev, counter-wise. Use around a measured
// region: before := c.Snapshot(); ...; delta := c.Snapshot().Sub(before).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		MessagesSent:    s.MessagesSent - prev.MessagesSent,
		MessagesRecv:    s.MessagesRecv - prev.MessagesRecv,
		BytesSent:       s.BytesSent - prev.BytesSent,
		BytesRecv:       s.BytesRecv - prev.BytesRecv,
		CallsIssued:     s.CallsIssued - prev.CallsIssued,
		CallsServed:     s.CallsServed - prev.CallsServed,
		ObjectsLive:     s.ObjectsLive - prev.ObjectsLive,
		ObjectsTotal:    s.ObjectsTotal - prev.ObjectsTotal,
		DiskReads:       s.DiskReads - prev.DiskReads,
		DiskWrites:      s.DiskWrites - prev.DiskWrites,
		DiskBytesRead:   s.DiskBytesRead - prev.DiskBytesRead,
		DiskBytesWrit:   s.DiskBytesWrit - prev.DiskBytesWrit,
		RespDropped:     s.RespDropped - prev.RespDropped,
		RespOrphaned:    s.RespOrphaned - prev.RespOrphaned,
		DialRetries:     s.DialRetries - prev.DialRetries,
		OverloadRetries: s.OverloadRetries - prev.OverloadRetries,
		ReqAdmitted:     s.ReqAdmitted - prev.ReqAdmitted,
		ReqShed:         s.ReqShed - prev.ReqShed,
		QueueHigh:       s.QueueHigh - prev.QueueHigh,
		QueueNormal:     s.QueueNormal - prev.QueueNormal,
		QueueBulk:       s.QueueBulk - prev.QueueBulk,
		ReqExpired:      s.ReqExpired - prev.ReqExpired,
		PagesHeld:       s.PagesHeld - prev.PagesHeld,
		PagesMigrated:   s.PagesMigrated - prev.PagesMigrated,
		BytesMigrated:   s.BytesMigrated - prev.BytesMigrated,
	}
}

// String renders the non-zero counters compactly.
func (s Snapshot) String() string {
	parts := []string{}
	add := func(name string, v int64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("msgsSent", s.MessagesSent)
	add("msgsRecv", s.MessagesRecv)
	add("bytesSent", s.BytesSent)
	add("bytesRecv", s.BytesRecv)
	add("calls", s.CallsIssued)
	add("served", s.CallsServed)
	add("objLive", s.ObjectsLive)
	add("objTotal", s.ObjectsTotal)
	add("diskR", s.DiskReads)
	add("diskW", s.DiskWrites)
	add("respDropped", s.RespDropped)
	add("respOrphaned", s.RespOrphaned)
	add("dialRetries", s.DialRetries)
	add("overloadRetries", s.OverloadRetries)
	add("admitted", s.ReqAdmitted)
	add("shed", s.ReqShed)
	add("qHigh", s.QueueHigh)
	add("qNormal", s.QueueNormal)
	add("qBulk", s.QueueBulk)
	add("expired", s.ReqExpired)
	add("pagesHeld", s.PagesHeld)
	add("pagesMigrated", s.PagesMigrated)
	add("bytesMigrated", s.BytesMigrated)
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}
