package transport

import (
	"sync"
	"time"

	"oopp/internal/simtime"
)

// LinkModel describes the cost of moving a message across a simulated
// network link. It substitutes for the paper's physical interconnect: the
// experiments depend on the *relative* cost of round trips versus bulk
// bandwidth, which two parameters capture.
//
// A message of n bytes occupies the link for
//
//	Latency + n / Bandwidth
//
// The zero LinkModel is a free, infinitely fast link (no delays), which is
// what correctness tests use; benchmark configurations install a modeled
// link (e.g. 20µs latency, 1 GiB/s) to recover network-shaped behaviour.
type LinkModel struct {
	// Latency is the fixed per-message cost (propagation + protocol).
	Latency time.Duration
	// Bandwidth is the link throughput in bytes per second. Zero means
	// infinite bandwidth.
	Bandwidth float64
}

// IsZero reports whether the model imposes no costs.
func (m LinkModel) IsZero() bool {
	return m.Latency == 0 && m.Bandwidth == 0
}

// TransferTime returns the modeled time for a message of n bytes.
func (m LinkModel) TransferTime(n int) time.Duration {
	d := m.Latency
	if m.Bandwidth > 0 {
		d += time.Duration(float64(n) / m.Bandwidth * float64(time.Second))
	}
	return d
}

// link applies a LinkModel to one direction of a connection by deadline
// accounting: a send computes the message's arrival instant and returns
// immediately; the receiver waits for that instant before delivery.
// Propagation therefore happens "in the network" — off every goroutine's
// CPU — so modeled latencies on distinct links overlap, which is what
// lets a collective broadcast over N machines complete in ~max(member
// latency) instead of the sum even on one core. The bandwidth term is
// transmission occupancy: it advances a per-direction busy clock, so
// back-to-back messages on one link still serialize at the modeled
// throughput (the E2 bulk ceiling).
type link struct {
	model LinkModel

	mu        sync.Mutex
	busyUntil time.Time // the direction's transmitter is occupied until here
}

// arrival returns the modeled delivery instant of an n-byte message sent
// now, advancing the link's occupancy clock. The zero time means "no
// modeled delay" (free link).
func (l *link) arrival(n int) time.Time {
	if l.model.IsZero() {
		return time.Time{}
	}
	total := l.model.TransferTime(n)
	hold := total - l.model.Latency // transmission time: the serializing term
	now := time.Now()
	l.mu.Lock()
	start := now
	if l.busyUntil.After(start) {
		start = l.busyUntil
	}
	l.busyUntil = start.Add(hold)
	l.mu.Unlock()
	return start.Add(total)
}

// awaitArrival blocks until a modeled arrival instant (no-op for the
// zero instant of a free link).
func awaitArrival(arrival time.Time) {
	if arrival.IsZero() {
		return
	}
	simtime.SleepUntil(arrival)
}
