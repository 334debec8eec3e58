package pfft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Refs returns the worker remote pointers, in id order, for tests that
// call a worker directly.
func (f *PFFT) Refs() []rmi.Ref { return f.workers.Refs() }

// goid names the calling goroutine: the "goroutine N" its stack begins with.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// newAlone returns a worker that is a group by itself on a 16×128×64 array:
// its forward exchange is one piece of sixteen 128 KiB planes, large enough
// to be shared among the machine's processors.
func newAlone() (*worker, error) {
	w, err := newWorker(0, 16, 128, 64)
	if err == nil {
		err = w.setGroup(1, make([]rmi.Ref, 1))
	}
	return w, err
}

// TestOneProcessorStartsNoGoroutine: on one processor a worker's planes are
// computed on the goroutine of its transform method, in order, as before
// there was any sharing.
func TestOneProcessorStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	w, err := newAlone()
	if err != nil {
		t.Fatal(err)
	}
	me := goid()
	var planes []int
	err = w.exchange(rmi.NewEnv(0), phaseForward, func(i1 int) error {
		if g := goid(); g != me {
			t.Errorf("plane %d computed on goroutine %s, the method's is %s", i1, g, me)
		}
		planes = append(planes, i1)
		return nil
	})
	if err != nil || !slices.IsSorted(planes) || len(planes) != w.h1 {
		t.Errorf("%v: planes %v, want 0 to %d in order", err, planes, w.h1-1)
	}
}

// TestAloneForksOncePerPhase: a worker with no peers shares a phase's
// planes in one fork-join, not one per piece — with nothing to send there
// is nothing for a piece to overlap. On four processors its planes are
// computed on at most four goroutines, the method's and three helpers; a
// fork per piece would start three more for each.
func TestAloneForksOncePerPhase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	w, err := newAlone()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	on := map[string]bool{}
	err = w.exchange(rmi.NewEnv(0), phaseForward, func(int) error {
		time.Sleep(time.Millisecond) // long enough that every helper claims a plane
		mu.Lock()
		defer mu.Unlock()
		on[goid()] = true
		return nil
	})
	if err != nil || len(on) > 4 {
		t.Errorf("%v: %d planes computed on %d goroutines, want at most 4", err, w.h1, len(on))
	}
}

// newPaired returns worker 0 of a group of two on a 32×256×64 array, whose
// peer is a worker on the other machine of cl, and the environment it
// exchanges in: its forward exchange is two pieces of eight 128 KiB planes,
// each shared among the machine's processors before it is sent.
func newPaired(cl *cluster.Cluster) (*worker, *rmi.Env, error) {
	const n1, n2, n3 = 32, 256, 64
	peer, err := workerClass.New(context.Background(), cl.Client(), 1, workerArgs{1, n1, n2, n3})
	if err != nil {
		return nil, nil, err
	}
	w, err := newWorker(0, n1, n2, n3)
	if err == nil {
		err = w.setGroup(2, []rmi.Ref{{}, peer})
	}
	env := rmi.NewEnv(0)
	env.Client = cl.Client()
	return w, env, err
}

// TestComputeErrorStopsTheExchange: plane 3 fails while helpers share the
// first piece of a worker with a peer. Its error is what the exchange
// returns — not that of plane 5, which fails too if it is reached — and no
// plane of the second piece is computed: a piece that failed is sent to no
// one, and the next is not begun. (A worker alone has one piece a phase,
// and its helpers stop claiming only once plane 3 has failed, so for it no
// plane is held back by a piece edge.)
func TestComputeErrorStopsTheExchange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	cl, err := cluster.NewLocal(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	w, env, err := newPaired(cl)
	if err != nil {
		t.Fatal(err)
	}
	if parts := cutPlanes(w.planes(phaseForward)); parts.per != 8 || parts.pieces() != 2 {
		t.Fatalf("forward exchange in %d pieces of %d planes, want 2 of 8", parts.pieces(), parts.per)
	}
	var mu sync.Mutex
	var planes []int
	errs := map[int]error{3: errors.New("plane 3"), 5: errors.New("plane 5")}
	err = w.exchange(env, phaseForward, func(i1 int) error {
		mu.Lock()
		defer mu.Unlock()
		planes = append(planes, i1)
		return errs[i1]
	})
	if err != errs[3] || slices.Max(planes) >= 8 {
		t.Errorf("exchange returned %v after computing planes %v, want plane 3's error and no plane of the second piece", err, planes)
	}
}

// panicky is a worker alone whose transform computes its planes with
// panickyCompute, which is also told the method's goroutine: exchange takes
// the arithmetic as a function, so a plane's compute can be made to panic
// without a branch in the worker for it.
type panicky struct{ *worker }

var panickyCompute func(method string, i1 int) error

func init() {
	panickyClass := rmi.RegisterClass("pfft.test.Panicky", wire.Void, func(env *rmi.Env, _ struct{}) (panicky, error) {
		w, err := newAlone()
		return panicky{w}, err
	})
	panickyClass.Declare("transform", func(w panicky, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		me := goid()
		return w.exchange(env, phaseForward, func(i1 int) error { return panickyCompute(me, i1) })
	})
}

// TestPanickingPlaneFailsTheCall: a plane's compute panics on a helper
// goroutine, which has no rmi frame above it to recover. The panic comes
// back as the failed transform call, the process lives — the same worker
// transforms next — and every helper is gone when the call returns.
func TestPanickingPlaneFailsTheCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	cl, err := cluster.NewLocal(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	ref, err := cl.Client().New(ctx, 0, "pfft.test.Panicky", nil)
	if err != nil {
		t.Fatal(err)
	}
	helperDown := make(chan struct{})
	var once sync.Once
	panickyCompute = func(method string, i1 int) error {
		if goid() == method {
			<-helperDown // the method's own planes fail nothing: the panic is a helper's
			return nil
		}
		once.Do(func() {
			defer close(helperDown)
			panic(fmt.Sprintf("plane %d's bug", i1))
		})
		return nil
	}
	goroutines := runtime.NumGoroutine()
	if _, err := cl.Client().Call(ctx, ref, "transform", nil); err == nil || !strings.Contains(err.Error(), "'s bug") {
		t.Fatalf("a plane panicking on a helper goroutine: %v", err)
	}
	// The helpers were joined before the call failed; anything else the
	// call started (a connection's reader) may take a moment to park.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the panicking transform, %d after", goroutines, runtime.NumGoroutine())
		}
	}
	panickyCompute = func(string, int) error { return nil }
	if _, err := cl.Client().Call(ctx, ref, "transform", nil); err != nil {
		t.Errorf("the worker's next transform: %v", err)
	}
}
