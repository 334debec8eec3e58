package rmi

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// shareElems is the size of work, in float64s of data, above which it is
// shared: smaller work is done before a helper would have started.
const shareElems = 1 << 16

// Sharers is the rule for sharing work: how many goroutines, the caller's
// included, Share gives items that work on elems float64s in all.
func Sharers(items, elems int) int {
	if elems <= shareElems {
		return 1
	}
	return max(1, min(runtime.GOMAXPROCS(0), items))
}

// sharing is one Share in execution: what its goroutines have in common.
type sharing struct {
	items    int
	f        func(worker, item int) error
	next     atomic.Int64 // the next unclaimed item
	wg       sync.WaitGroup
	mu       sync.Mutex // guards the rest
	failedAt int        // the lowest item that failed, or -1: f panicked
	err      error      // item failedAt's error
	panicked any        // what f panicked with
}

// Share is the one fork-join of a machine: f(worker, item) for every item of
// [0, items), on the calling goroutine and Sharers(items, elems)-1 helpers,
// returning when all have finished — a serial method that shares its work is
// as serial as before. Items are claimed one by one from a counter; worker,
// 0 for the caller, names the goroutine, for scratch it owns. After a failure
// no further item is claimed and the lowest failed item's error is returned;
// a panic of f on any goroutine is raised again on the caller after the join,
// where rmi fails the call. Alone, the caller runs the plain loop.
func Share(items, elems int, f func(worker, item int) error) error {
	workers := Sharers(items, elems)
	if workers == 1 {
		for i := 0; i < items; i++ {
			if err := f(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	s := &sharing{items: items, f: f, failedAt: items}
	s.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go s.sweep(w)
	}
	s.sweep(0)
	s.wg.Wait()
	if s.panicked != nil {
		panic(s.panicked)
	}
	return s.err
}

// sweep is one goroutine of a Share: it claims items until none is left or one has failed.
func (s *sharing) sweep(w int) {
	defer s.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			s.fail(-1, nil, p)
		}
	}()
	for i := int(s.next.Add(1)) - 1; i < s.items; i = int(s.next.Add(1)) - 1 {
		if err := s.f(w, i); err != nil {
			s.fail(i, err, nil)
		}
	}
}

// fail stops the claiming and records item i's error, or as item -1 a panic.
func (s *sharing) fail(i int, err error, panicked any) {
	s.next.Store(int64(s.items))
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < s.failedAt {
		s.failedAt, s.err, s.panicked = i, err, panicked
	}
}
