package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestContextRoundTrip(t *testing.T) {
	if sc, ok := FromContext(context.Background()); ok || sc.TraceID != 0 {
		t.Fatalf("background context reported a trace: %+v", sc)
	}
	if _, ok := FromContext(nil); ok {
		t.Fatal("nil context reported a trace")
	}
	want := NewRoot(true)
	ctx := ContextWith(context.Background(), want)
	got, ok := FromContext(ctx)
	if !ok || got != want {
		t.Fatalf("FromContext = %+v, %v; want %+v", got, ok, want)
	}
}

func TestStartSpanUnsampledIsInert(t *testing.T) {
	ResetSpans()
	// Untraced and traced-but-unsampled contexts produce nil spans and an
	// unchanged context.
	for _, ctx := range []context.Context{
		context.Background(),
		ContextWith(context.Background(), SpanContext{TraceID: NewID(), SpanID: NewID()}),
	} {
		ctx2, sp := StartSpan(ctx, "noop")
		if sp != nil {
			t.Fatal("unsampled StartSpan returned a span")
		}
		if ctx2 != ctx {
			t.Fatal("unsampled StartSpan derived a new context")
		}
		sp.End(false) // nil End must be safe
	}
	if n := len(Spans()); n != 0 {
		t.Fatalf("unsampled spans recorded: %d", n)
	}
}

func TestSpanParentChain(t *testing.T) {
	ResetSpans()
	root := NewRoot(true)
	ctx := ContextWith(context.Background(), root)

	ctx1, s1 := StartSpan(ctx, "outer")
	if s1 == nil {
		t.Fatal("sampled StartSpan returned nil")
	}
	_, s2 := StartSpan(ctx1, "inner")
	s2.SetMachine(7)
	s2.End(false)
	s1.End(true)

	recs := Spans()
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	outer, inner := byName["outer"], byName["inner"]
	if outer.TraceID != root.TraceID || inner.TraceID != root.TraceID {
		t.Fatalf("trace ids diverged: %+v %+v", outer, inner)
	}
	if outer.ParentID != root.SpanID {
		t.Errorf("outer parent = %d, want root %d", outer.ParentID, root.SpanID)
	}
	if inner.ParentID != outer.SpanID {
		t.Errorf("inner parent = %d, want outer %d", inner.ParentID, outer.SpanID)
	}
	if inner.Machine != 7 {
		t.Errorf("inner machine = %d, want 7", inner.Machine)
	}
	if !outer.Err || inner.Err {
		t.Errorf("err flags: outer=%v inner=%v", outer.Err, inner.Err)
	}
}

func TestRingOverwriteAndConcurrency(t *testing.T) {
	ResetSpans()
	root := NewRoot(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*ringSize; i++ {
				Emit(root, 0, "evt")
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, r := range Spans() {
				if r.TraceID != root.TraceID || r.Name != "evt" {
					t.Errorf("torn record: %+v", r)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if n := len(Spans()); n != ringSize {
		t.Fatalf("ring holds %d records, want full %d", n, ringSize)
	}
}

// A server's method table is indexed by method and holds nil for a
// method not called there yet; its snapshot skips those and sorts by
// name.
func TestMethodsRegistry(t *testing.T) {
	echo, apply := &MethodStats{Name: "cls.echo"}, &MethodStats{Name: "cls.apply"}
	echo.Hist.Observe(40 * time.Microsecond)
	echo.OK.Add(1)
	apply.Errs.Add(2)

	snap := SnapshotMethods([]*MethodStats{echo, nil, apply})
	if len(snap) != 2 || snap[0].Name != "cls.apply" || snap[1].Name != "cls.echo" {
		t.Fatalf("snapshot order/content wrong: %+v", snap)
	}
	if snap[1].OK != 1 || snap[1].Hist.Count != 1 {
		t.Errorf("echo snapshot = %+v", snap[1])
	}
	if snap[0].Errs != 2 {
		t.Errorf("apply errs = %d, want 2", snap[0].Errs)
	}
}

func TestNewIDNonZeroAndUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == 0 || seen[id] {
			t.Fatalf("id %d duplicate or zero", id)
		}
		seen[id] = true
	}
}
