package wire_test

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"oopp/internal/wire"
)

// borrowVals are values a copy and a borrow could conceivably put
// differently: -0, a NaN with a payload, a subnormal, an infinity.
var borrowVals = []float64{1.5, math.Copysign(0, -1), math.Float64frombits(0x7FF8DEADBEEF0001), 0x1p-1074, math.Inf(-1), 3}

// putFrame is the frame of index then vals, with vals copied in.
func putFrame(index int, vals []float64) []byte {
	e := wire.GetEncoder(16)
	defer wire.PutEncoder(e)
	e.PutInt(index)
	e.PutFloat64s(vals)
	return e.Detach()
}

// TestBorrowFloat64sBytes: a frame whose values are borrowed is, head and
// tail together, the frame PutFloat64s makes of them, and the tail is the
// values' own memory. On a host whose float64s are not in the wire's byte
// order the values are copied into the head instead, the same bytes, and
// nothing is borrowed.
func TestBorrowFloat64sBytes(t *testing.T) {
	for _, le := range []bool{true, false} {
		restore := wire.SetHostLittleEndian(le)
		for _, n := range []int{0, 1, len(borrowVals)} {
			vals := borrowVals[:n]
			want := putFrame(7, vals)
			e := wire.GetEncoder(16)
			e.PutInt(7)
			e.BorrowFloat64s(vals, nil)
			if e.Len() != len(want) {
				t.Errorf("little endian %v, %d values: Len %d, want %d", le, n, e.Len(), len(want))
			}
			head, tail, _ := e.DetachFrame()
			wire.PutEncoder(e)
			if got := append(append([]byte(nil), head...), tail...); !bytes.Equal(got, want) {
				t.Errorf("little endian %v, %d values: frame % x, want % x", le, n, got, want)
			}
			switch borrowed := le && n > 0; {
			case borrowed && (len(tail) != 8*n || unsafe.SliceData(tail) != (*byte)(unsafe.Pointer(&vals[0]))):
				t.Errorf("little endian, %d values: the tail is not the values' memory", n)
			case !borrowed && tail != nil:
				t.Errorf("little endian %v, %d values: %d bytes borrowed, want none", le, n, len(tail))
			}
		}
		restore()
	}
}

// TestBorrowedTailJoinsWhenWanted: whatever wants the frame in one buffer —
// Detach, Bytes, a put after the borrowed values — copies the values in
// then, so the frame is right and no longer refers to them.
func TestBorrowedTailJoinsWhenWanted(t *testing.T) {
	for _, c := range []struct {
		name  string
		get   func(e *wire.Encoder) []byte
		after []byte // what get puts after the values
	}{
		{"Detach", (*wire.Encoder).Detach, nil},
		{"Bytes", func(e *wire.Encoder) []byte { return append([]byte(nil), e.Bytes()...) }, nil},
		{"a put after", func(e *wire.Encoder) []byte {
			e.PutInt(-1)
			head, tail, _ := e.DetachFrame()
			if tail != nil {
				t.Errorf("a put after: %d bytes still borrowed", len(tail))
			}
			return head
		}, []byte{1}}, // -1 zig-zagged
	} {
		vals := append([]float64(nil), borrowVals...)
		want := append(putFrame(3, vals), c.after...)
		e := wire.GetEncoder(16)
		e.PutInt(3)
		e.BorrowFloat64s(vals, nil)
		got := c.get(e)
		wire.PutEncoder(e)
		clear(vals)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: frame % x, want % x", c.name, got, want)
		}
	}
}

// TestGiveBackRunsOnce: a lender's giveBack runs exactly once on every way
// a borrow ends — never while the encoder still refers to the values, and
// not at all while the frame is out with DetachFrame's caller, who gets it
// to run. Values copied at once (none to lend, or a host whose float64s
// are not in the wire's byte order) are given back at once.
func TestGiveBackRunsOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		le   bool
		vals []float64
		end  func(e *wire.Encoder) (giveBack func())
	}{
		{"Reset", true, borrowVals, func(e *wire.Encoder) func() { e.Reset(); return nil }},
		{"PutEncoder", true, borrowVals, func(e *wire.Encoder) func() { wire.PutEncoder(e); return nil }},
		{"Detach", true, borrowVals, func(e *wire.Encoder) func() { e.Detach(); return nil }},
		{"Bytes", true, borrowVals, func(e *wire.Encoder) func() { e.Bytes(); return nil }},
		{"a put after", true, borrowVals, func(e *wire.Encoder) func() { e.PutInt(-1); return nil }},
		{"a second borrow", true, borrowVals, func(e *wire.Encoder) func() { e.BorrowFloat64s(borrowVals, nil); return nil }},
		{"DetachFrame", true, borrowVals, func(e *wire.Encoder) func() {
			_, tail, back := e.DetachFrame()
			if tail == nil || back == nil {
				t.Errorf("DetachFrame: tail %v, giveBack %v, want both", tail != nil, back != nil)
			}
			return back
		}},
		{"big-endian copy", false, borrowVals, func(e *wire.Encoder) func() { return nil }},
		{"no values", true, nil, func(e *wire.Encoder) func() { return nil }},
	} {
		restore := wire.SetHostLittleEndian(c.le)
		lent := c.le && len(c.vals) > 0
		var runs int
		e := wire.GetEncoder(16)
		e.PutInt(1)
		e.BorrowFloat64s(c.vals, func() { runs++ })
		if want := map[bool]int{true: 0, false: 1}[lent]; runs != want {
			t.Errorf("%s: given back %d times on the borrow, want %d", c.name, runs, want)
		}
		if back := c.end(e); back != nil {
			if runs != 0 {
				t.Errorf("%s: given back while DetachFrame's caller held the frame", c.name)
			}
			back()
		}
		wire.PutEncoder(e)
		restore()
		if runs != 1 {
			t.Errorf("%s: given back %d times, want once", c.name, runs)
		}
	}
}
