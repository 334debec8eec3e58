package rmi

import (
	"time"
)

// AdmissionConfig bounds a server's in-flight work per priority class.
// "In flight" spans acceptance to reply — decoded requests waiting in
// object mailboxes count, so a slow object saturates its class instead
// of growing an unbounded queue behind it. A zero capacity selects the
// class's default; a negative capacity means unbounded (the pre-PR-6
// behaviour). The zero value therefore selects all defaults.
type AdmissionConfig struct {
	Capacity [NumPriorities]int
}

// Default per-class in-flight budgets. High and normal are sized for a
// high-fan-in front door (thousands of concurrent callers per machine);
// bulk is kept an order of magnitude tighter so background sweeps are
// the first — and usually only — traffic shed under pressure.
const (
	defaultCapHigh   = 1024
	defaultCapNormal = 4096
	defaultCapBulk   = 1024
)

// resolve fills zero capacities with the class defaults and returns the
// effective per-class caps (negative = unbounded).
func (a AdmissionConfig) resolve() [NumPriorities]int {
	caps := a.Capacity
	defaults := [NumPriorities]int{
		PrioHigh:   defaultCapHigh,
		PrioNormal: defaultCapNormal,
		PrioBulk:   defaultCapBulk,
	}
	for p := range caps {
		if caps[p] == 0 {
			caps[p] = defaults[p]
		}
	}
	return caps
}

// SetAdmission installs new per-class in-flight budgets. Safe to call on
// a live server: work already admitted is unaffected, subsequent
// admissions see the new caps (a cap below the current depth simply
// sheds new arrivals until the class drains under it).
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	for p, c := range cfg.resolve() {
		s.admitCap[p].Store(int64(c))
	}
}

// QueueDepths returns the current in-flight request count per priority
// class, for tests and stats.
func (s *Server) QueueDepths() (depths [NumPriorities]int) {
	for p := range depths {
		depths[p] = int(s.admitDepth[p].Load())
	}
	return depths
}

// The bits of Server.stopped.
const (
	stopDraining = 1 << iota // Drain was called
	stopClosed               // Close was called
)

// stop sets bit in s.stopped; the first stop gives back the token the
// server holds, so that the drain tokens can reach zero. The caller holds
// s.mu.
func (s *Server) stop(bit uint32) {
	if s.stopped.Or(bit) == 0 {
		s.release(1)
	}
}

// admit accepts one unit of in-flight work in class prio, or explains
// why not: ErrDraining when the server is going away (always checked
// first, so drain and overload never mask each other), an
// *OverloadedError when the class budget is spent. A nil return hands
// the caller a slot of the class and a drain token, which the request's
// finish gives back. It takes no lock: the slot is a compare-and-swap
// of the class's depth below its cap, so the depth never exceeds the cap
// however many processors admit at once, and the token is refused once
// the count has reached zero — a Drain that has returned, or that raced
// the flag check above, admits nothing after it.
func (s *Server) admit(prio Priority) error {
	if s.stopped.Load() != 0 {
		return ErrDraining
	}
	depth, limit := &s.admitDepth[prio], s.admitCap[prio].Load()
	for {
		d := depth.Load()
		if limit >= 0 && d >= limit {
			s.counters.ReqShed.Add(1)
			return &OverloadedError{
				Machine:    s.machine,
				Priority:   prio,
				Queued:     int(d),
				RetryAfter: s.retryHint(prio),
			}
		}
		if depth.CompareAndSwap(d, d+1) {
			break
		}
	}
	for {
		n := s.tokens.Load()
		if n == 0 {
			depth.Add(-1)
			return ErrDraining
		}
		if s.tokens.CompareAndSwap(n, n+1) {
			return nil
		}
	}
}

// release retires n drain tokens; the release that retires the last one
// tells Drain.
func (s *Server) release(n int) {
	if s.tokens.Add(-int64(n)) == 0 {
		close(s.drained)
	}
}

// freeSlot gives the class its in-flight slot back, folding the
// request's service time took (acceptance to reply) into the class's EWMA
// so future rejections carry a current retry hint. Its one caller is
// callTask.finish, BEFORE the reply is sent and the drain token is
// released after: a client holding a reply — an error reply included —
// must find the slot it occupied free (its next request is not shed by
// its own last one, and QueueDepths read over a second connection does
// not count it), while Drain returning still means every accepted
// request's reply is on the wire.
func (s *Server) freeSlot(prio Priority, took time.Duration) {
	s.observeService(prio, took)
	s.admitDepth[prio].Add(-1)
}

// serviceEWMA tuning: new samples get 1/ewmaDiv weight, and hints are
// clamped so a pathological sample can neither tell clients to hammer a
// busy server nor to go away for minutes.
const (
	ewmaDiv      = 8
	retryHintMin = 100 * time.Microsecond
	retryHintMax = 5 * time.Second
)

// observeService folds one completed request's service time into the
// class EWMA. Racy read-modify-write on purpose: lost updates only make
// the hint marginally staler, and the hot path stays lock-free.
func (s *Server) observeService(prio Priority, d time.Duration) {
	ns := d.Nanoseconds()
	if ns <= 0 {
		ns = 1
	}
	old := s.ewmaNs[prio].Load()
	if old == 0 {
		s.ewmaNs[prio].Store(ns)
		return
	}
	s.ewmaNs[prio].Store(old - old/ewmaDiv + ns/ewmaDiv)
}

// retryHint suggests how long a shed caller should back off: roughly one
// recent service time of the saturated class — the expected horizon for
// an in-flight slot to free — clamped to sane bounds.
func (s *Server) retryHint(prio Priority) time.Duration {
	d := time.Duration(s.ewmaNs[prio].Load())
	if d < retryHintMin {
		d = retryHintMin
	}
	if d > retryHintMax {
		d = retryHintMax
	}
	return d
}
