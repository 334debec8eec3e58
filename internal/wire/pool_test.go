package wire

import (
	"errors"
	"testing"
)

func TestEncoderDetachAndRecycle(t *testing.T) {
	e := GetEncoder(64)
	e.PutUvarint(7)
	e.PutString("hello")
	frame := e.Detach()
	PutEncoder(e)

	d := NewDecoder(frame)
	if got := d.Uvarint(); got != 7 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("string = %q", got)
	}
}

func TestEncoderUseAfterPutPanics(t *testing.T) {
	e := GetEncoder(16)
	e.PutInt(1)
	PutEncoder(e)
	defer func() {
		if recover() == nil {
			t.Fatal("Put on a returned encoder did not panic")
		}
	}()
	e.PutInt(2)
}

func TestPutEncoderIdempotent(t *testing.T) {
	e := GetEncoder(16)
	PutEncoder(e)
	PutEncoder(e) // must not double-pool or panic
}

func TestEncoderGrowthPreservesContent(t *testing.T) {
	e := GetEncoder(8)
	vals := make([]float64, 4096) // forces several pool-backed growths
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	e.PutString("header")
	e.PutFloat64s(vals)
	frame := e.Detach()
	PutEncoder(e)

	d := NewDecoder(frame)
	if s := d.String(); s != "header" {
		t.Fatalf("header = %q", s)
	}
	got := d.Float64s()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("vals[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestBytesViewInvalidatedByRelease(t *testing.T) {
	e := GetEncoder(64)
	e.PutBytes([]byte("payload"))
	frame := e.Detach()
	PutEncoder(e)

	d := GetFrameDecoder(frame)
	view := d.BytesView()
	if string(view) != "payload" {
		t.Fatalf("view = %q", view)
	}
	d.Release()

	// The frame is back in the pool: the next pooled encoder of the same
	// class may scribble over it. The test documents the aliasing hazard
	// by demonstrating the recycle really happens.
	e2 := GetEncoder(64)
	e2.PutBytes([]byte("CLOBBER"))
	got := e2.Detach()
	PutEncoder(e2)
	same := &got[0] == &frame[0]
	if !same {
		t.Skip("pool did not hand back the same buffer (contended run)")
	}
	if string(view) == "payload" {
		t.Fatal("view survived Release + recycle: aliasing contract not exercised")
	}
}

func TestDecoderReleasePoisonsReads(t *testing.T) {
	e := GetEncoder(32)
	e.PutInt(42)
	frame := e.Detach()
	PutEncoder(e)

	d := GetFrameDecoder(frame)
	if got := d.Int(); got != 42 {
		t.Fatalf("int = %d", got)
	}
	d.Release()
	if got := d.Int(); got != 0 {
		t.Fatalf("read after Release = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrReleased) {
		t.Fatalf("Err after Release = %v, want ErrReleased", d.Err())
	}
	d.Release() // idempotent
	var nilDec *Decoder
	nilDec.Release() // nil-safe
}

func TestNewDecoderReleaseDoesNotPool(t *testing.T) {
	buf := []byte{1, 2, 3}
	d := NewDecoder(buf)
	d.Release()
	if buf[0] != 1 {
		t.Fatal("Release of a borrowed decoder touched the caller's bytes")
	}
	if !errors.Is(d.Err(), ErrReleased) {
		t.Fatalf("Err = %v", d.Err())
	}
}

func TestStringBytesMatchesString(t *testing.T) {
	e := GetEncoder(32)
	e.PutString("methodName")
	e.PutString("second")
	frame := e.Detach()
	PutEncoder(e)

	d := NewDecoder(frame)
	if got := d.StringBytes(); string(got) != "methodName" {
		t.Fatalf("StringBytes = %q", got)
	}
	if got := d.String(); got != "second" {
		t.Fatalf("String after StringBytes = %q", got)
	}
}

func TestComplex128sInto(t *testing.T) {
	vals := []complex128{1 + 2i, -3.5 + 0.25i, 0}
	e := GetEncoder(64)
	e.PutComplex128s(vals)
	d := NewDecoder(e.Bytes())
	dst := make([]complex128, len(vals))
	d.Complex128sInto(dst)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i := range vals {
		if dst[i] != vals[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], vals[i])
		}
	}

	d2 := NewDecoder(e.Bytes())
	d2.Complex128sInto(make([]complex128, 1))
	if d2.Err() == nil {
		t.Fatal("Complex128sInto length mismatch not detected")
	}
}

func TestEncodeDecodeCycleAllocationFree(t *testing.T) {
	// Steady-state request/response shape: pooled encoder, detach, pooled
	// decoder, release. After warm-up this must not allocate.
	for i := 0; i < 4; i++ { // warm the pools
		e := GetEncoder(64)
		e.PutUvarint(1)
		d := GetFrameDecoder(e.Detach())
		PutEncoder(e)
		d.Uvarint()
		d.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		e := GetEncoder(64)
		e.PutUvarint(99)
		e.PutString("echo")
		frame := e.Detach()
		PutEncoder(e)
		d := GetFrameDecoder(frame)
		d.Uvarint()
		d.StringBytes()
		d.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled encode/decode cycle allocates %.1f/op, want 0", allocs)
	}
}
