// Package metrics provides lightweight instrumentation for the OOPP
// runtime. The experiment harness uses it to report the quantities the
// paper reasons about — number of client-server messages, bytes moved,
// disk operations — alongside wall-clock time.
//
// All counters are safe for concurrent use.
package metrics

import "sync/atomic"

// Counters aggregates the runtime's communication counters. The zero value
// is ready to use.
type Counters struct {
	MessagesSent    atomic.Int64 // frames handed to the transport
	BytesSent       atomic.Int64 // payload bytes sent
	DiskReads       atomic.Int64 // simulated disk read operations
	DiskWrites      atomic.Int64 // simulated disk write operations
	RespDropped     atomic.Int64 // response frames with unparseable headers, discarded
	RespOrphaned    atomic.Int64 // responses to abandoned (canceled/timed-out) requests
	DialRetries     atomic.Int64 // redials performed under the WithRetryDial call option
	OverloadRetries atomic.Int64 // call re-issues under the WithRetryOverload call option
	ReqShed         atomic.Int64 // requests rejected at admission (ErrOverloaded)
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
	BytesSent       int64
	DiskReads       int64
	DiskWrites      int64
	RespDropped     int64
	RespOrphaned    int64
	DialRetries     int64
	OverloadRetries int64
	ReqShed         int64
	ReqExpired      int64
	PagesHeld       int64
	PagesMigrated   int64
	BytesMigrated   int64
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		MessagesSent:    c.MessagesSent.Load(),
		BytesSent:       c.BytesSent.Load(),
		DiskReads:       c.DiskReads.Load(),
		DiskWrites:      c.DiskWrites.Load(),
		RespDropped:     c.RespDropped.Load(),
		RespOrphaned:    c.RespOrphaned.Load(),
		DialRetries:     c.DialRetries.Load(),
		OverloadRetries: c.OverloadRetries.Load(),
		ReqShed:         c.ReqShed.Load(),
		ReqExpired:      c.ReqExpired.Load(),
		PagesHeld:       c.PagesHeld.Load(),
		PagesMigrated:   c.PagesMigrated.Load(),
		BytesMigrated:   c.BytesMigrated.Load(),
	}
}

// Sub returns the delta s - prev, counter-wise. Use around a measured
// region: before := c.Snapshot(); ...; delta := c.Snapshot().Sub(before).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		MessagesSent:    s.MessagesSent - prev.MessagesSent,
		BytesSent:       s.BytesSent - prev.BytesSent,
		DiskReads:       s.DiskReads - prev.DiskReads,
		DiskWrites:      s.DiskWrites - prev.DiskWrites,
		RespDropped:     s.RespDropped - prev.RespDropped,
		RespOrphaned:    s.RespOrphaned - prev.RespOrphaned,
		DialRetries:     s.DialRetries - prev.DialRetries,
		OverloadRetries: s.OverloadRetries - prev.OverloadRetries,
		ReqShed:         s.ReqShed - prev.ReqShed,
		ReqExpired:      s.ReqExpired - prev.ReqExpired,
		PagesHeld:       s.PagesHeld - prev.PagesHeld,
		PagesMigrated:   s.PagesMigrated - prev.PagesMigrated,
		BytesMigrated:   s.BytesMigrated - prev.BytesMigrated,
	}
}
