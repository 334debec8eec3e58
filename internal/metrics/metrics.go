// Package metrics provides lightweight instrumentation for the OOPP
// runtime: latency histograms (Hist), and the quantities the paper
// reasons about — messages, bytes moved, disk operations — counted in one
// Registry per machine (rmi.Env.Counters), which the debug plane ships.
//
// All counters are safe for concurrent use.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Registry is one machine's counters. NewRegistry makes one that Default
// counts; Close it when the machine goes away.
type Registry struct {
	MessagesSent    atomic.Int64 // frames handed to the transport
	BytesSent       atomic.Int64 // payload bytes sent
	DiskReads       atomic.Int64 // simulated disk read operations
	DiskWrites      atomic.Int64 // simulated disk write operations
	RespDropped     atomic.Int64 // response frames with unparseable headers, discarded
	RespOrphaned    atomic.Int64 // responses to abandoned (canceled/timed-out) requests
	DialRetries     atomic.Int64 // redials performed under the WithRetryDial call option
	OverloadRetries atomic.Int64 // call re-issues under the WithRetryOverload call option
	ReqShed         atomic.Int64 // requests this machine's admission rejected (ErrOverloaded)
	PagesHeld       atomic.Int64 // net pages migrated in: adopted here minus retired from here
	PagesMigrated   atomic.Int64 // pages the migration engine moved onto this machine
	BytesMigrated   atomic.Int64 // payload bytes of those pages
}

// Snapshot is a point-in-time copy of a registry's counters, or of a sum
// of registries.
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
	PagesHeld       int64
	PagesMigrated   int64
	BytesMigrated   int64
}

// counters lists r's counters in Snapshot's field order.
func (r *Registry) counters() [12]*atomic.Int64 {
	return [...]*atomic.Int64{&r.MessagesSent, &r.BytesSent, &r.DiskReads, &r.DiskWrites,
		&r.RespDropped, &r.RespOrphaned, &r.DialRetries, &r.OverloadRetries,
		&r.ReqShed, &r.PagesHeld, &r.PagesMigrated, &r.BytesMigrated}
}

// fields lists s's fields in declaration order.
func (s *Snapshot) fields() [12]*int64 {
	return [...]*int64{&s.MessagesSent, &s.BytesSent, &s.DiskReads, &s.DiskWrites,
		&s.RespDropped, &s.RespOrphaned, &s.DialRetries, &s.OverloadRetries,
		&s.ReqShed, &s.PagesHeld, &s.PagesMigrated, &s.BytesMigrated}
}

// Snapshot returns a copy of the current counter values.
func (r *Registry) Snapshot() (s Snapshot) {
	r.addTo(&s)
	return s
}

// addTo adds r's counters to s.
func (r *Registry) addTo(s *Snapshot) {
	f := s.fields()
	for i, c := range r.counters() {
		*f[i] += c.Load()
	}
}

// Sub returns the delta s - prev, counter-wise. Use around a measured
// region: before := r.Snapshot(); ...; delta := r.Snapshot().Sub(before).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	f := s.fields()
	for i, p := range prev.fields() {
		*f[i] -= *p
	}
	return s
}

// process is every registry of the process: the live ones, and the sum
// of those closed.
var process = struct {
	mu     sync.Mutex
	live   map[*Registry]bool
	closed Snapshot
}{live: map[*Registry]bool{}}

// NewRegistry returns an empty registry that Default counts.
func NewRegistry() *Registry {
	r := new(Registry)
	process.mu.Lock()
	process.live[r] = true
	process.mu.Unlock()
	return r
}

// Close folds r's counts into Default's sum of closed registries; what r
// counts afterwards stays in r alone. Closing twice is harmless.
func (r *Registry) Close() {
	process.mu.Lock()
	defer process.mu.Unlock()
	if process.live[r] {
		delete(process.live, r)
		r.addTo(&process.closed)
	}
}

// Default is the read-only sum over every registry of the process, live
// and closed, so a delta of two of its snapshots never goes back.
var Default processSum

type processSum struct{}

// Snapshot returns the sum over every registry of the process.
func (processSum) Snapshot() Snapshot {
	process.mu.Lock()
	defer process.mu.Unlock()
	s := process.closed
	for r := range process.live {
		r.addTo(&s)
	}
	return s
}
