package rmi

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goid names the calling goroutine: the "goroutine N" its stack begins with.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

const bigWork = shareElems + 1 // elements enough to be shared

// TestSharersIsTheRule: work is shared when it is above shareElems, there
// is more than one item and more than one processor — among no more
// goroutines than either.
func TestSharersIsTheRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, items, elems, want int }{
		{1, 8, bigWork, 1}, {4, 8, shareElems, 1}, {4, 1, bigWork, 1}, {4, 0, bigWork, 1},
		{2, 8, bigWork, 2}, {8, 3, bigWork, 3}, {8, 100, 1 << 30, 8},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := Sharers(c.items, c.elems); got != c.want {
			t.Errorf("%d items of %d elements on %d processors: %d goroutines, want %d", c.items, c.elems, c.procs, got, c.want)
		}
	}
}

// TestShareAloneIsThePlainLoop: work below the threshold on eight
// processors, and work of any size on one, runs on the calling goroutine as
// worker 0, item by item in order, stops at the first error, lets a panic
// through, and allocates nothing.
func TestShareAloneIsThePlainLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, elems int }{{8, shareElems}, {1, 1 << 30}} {
		runtime.GOMAXPROCS(c.procs)
		me, stop := goid(), errors.New("item 5")
		var ran []int
		err := Share(8, c.elems, func(w, i int) error {
			if g := goid(); g != me || w != 0 {
				t.Errorf("%d processors, %d elements: item %d ran as worker %d on goroutine %s, the caller is %s", c.procs, c.elems, i, w, g, me)
			}
			ran = append(ran, i)
			if i == 5 {
				return stop
			}
			return nil
		})
		if err != stop || fmt.Sprint(ran) != "[0 1 2 3 4 5]" {
			t.Errorf("%d processors, %d elements: ran %v and returned %v, want items 0 to 5 and item 5's error", c.procs, c.elems, ran, err)
		}
		func() {
			defer func() {
				if p := recover(); p != "f's bug" {
					t.Errorf("%d processors: recovered %v, want f's panic", c.procs, p)
				}
			}()
			Share(8, c.elems, func(_, i int) error { panic("f's bug") })
		}()
		if n := testing.AllocsPerRun(100, func() { Share(8, c.elems, func(_, _ int) error { return nil }) }); n != 0 && !raceEnabled {
			t.Errorf("%d processors, %d elements: %.0f allocations a call, want none", c.procs, c.elems, n)
		}
	}
}

// TestShareRunsEveryItemOnce: shared work runs each item exactly once, on
// goroutines numbered below Sharers, and a worker number belongs to one
// goroutine for the whole call — its scratch is written here without
// synchronisation, which the race detector would report otherwise.
func TestShareRunsEveryItemOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	const items = 1000
	for round := 0; round < 20; round++ {
		seen := make([]int, items)
		scratch := make([]struct {
			who   string
			count int
		}, Sharers(items, bigWork))
		err := Share(items, bigWork, func(w, i int) error {
			seen[i]++
			if s := &scratch[w]; s.who == "" {
				s.who = goid()
			} else if g := goid(); s.who != g {
				t.Errorf("worker %d is goroutine %s and goroutine %s", w, s.who, g)
			}
			scratch[w].count++
			return nil
		})
		total := 0
		for _, s := range scratch {
			total += s.count
		}
		if who := scratch[0].who; err != nil || total != items || who != "" && who != goid() { // "": the helpers left it none
			t.Fatalf("%v: %d of %d items ran, worker 0 is goroutine %q, the caller %s", err, total, items, who, goid())
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("item %d ran %d times", i, n)
			}
		}
	}
}

// TestShareLowestFailedItemWins: items 3 and 9 are both running when either
// fails; whichever fails first, item 3's error is the one returned.
func TestShareLowestFailedItemWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	err3, err9 := errors.New("item 3"), errors.New("item 9")
	errs := map[int]error{3: err3, 9: err9}
	for _, first := range []int{3, 9} {
		in := map[int]chan struct{}{3: make(chan struct{}), 9: make(chan struct{})}
		failed := make(chan struct{})
		err := Share(16, bigWork, func(_, i int) error {
			if i != 3 && i != 9 {
				return nil
			}
			close(in[i])
			<-in[12-i] // the other is claimed too
			if i == first {
				defer close(failed)
			} else {
				<-failed
			}
			return errs[i]
		})
		if err != err3 {
			t.Errorf("item %d failing first: Share returned %v, want item 3's error", first, err)
		}
	}
}

// TestShareClaimsNothingAfterAFailure: the goroutine whose item failed runs
// no other, and one that comes to claim afterwards finds none.
func TestShareClaimsNothingAfterAFailure(t *testing.T) {
	var ran []int
	stop := errors.New("item 2")
	s := &sharing{items: 10, failedAt: 10, f: func(_, i int) error {
		ran = append(ran, i)
		if i == 2 {
			return stop
		}
		return nil
	}}
	s.wg.Add(2)
	s.sweep(0)
	s.sweep(1)
	if s.err != stop || s.failedAt != 2 || fmt.Sprint(ran) != "[0 1 2]" {
		t.Errorf("ran %v, recorded item %d: %v; want items 0 to 2 and item 2's error", ran, s.failedAt, s.err)
	}
}

// TestSharePanicIsRaisedOnTheCaller: a panic of f on a helper — which has no
// frame above it that could recover — is raised on the calling goroutine
// once every goroutine is through, and no helper is left.
func TestSharePanicIsRaisedOnTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	before := runtime.NumGoroutine()
	me, helperDown := goid(), make(chan struct{})
	var first atomic.Bool
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		err := Share(64, bigWork, func(w, i int) error {
			if w == 0 {
				<-helperDown // the caller's items fail nothing: the panic is a helper's
				return nil
			}
			if !first.CompareAndSwap(false, true) {
				return nil
			}
			close(helperDown)
			panic(fmt.Sprintf("bug on %s", goid()))
		})
		t.Errorf("Share returned %v after f panicked", err)
	}()
	if recovered == nil || recovered == "bug on "+me {
		t.Errorf("recovered %v on goroutine %s, want a helper's panic", recovered, me)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the panicking Share, %d after", before, runtime.NumGoroutine())
		}
	}
}
