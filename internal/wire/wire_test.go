package wire

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutUvarint(0)
	e.PutUvarint(1)
	e.PutUvarint(math.MaxUint64)
	e.PutVarint(0)
	e.PutVarint(-1)
	e.PutVarint(math.MinInt64)
	e.PutVarint(math.MaxInt64)
	e.PutInt(-42)
	e.PutBool(true)
	e.PutBool(false)
	e.PutFloat64(3.1415)
	e.PutFloat64(math.Inf(-1))
	e.PutComplex128(complex(1.5, -2.5))
	e.PutString("hello, 世界")
	e.PutString("")

	d := NewDecoder(e.Bytes())
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"uvarint 0", d.Uvarint(), uint64(0)},
		{"uvarint 1", d.Uvarint(), uint64(1)},
		{"uvarint max", d.Uvarint(), uint64(math.MaxUint64)},
		{"varint 0", d.Varint(), int64(0)},
		{"varint -1", d.Varint(), int64(-1)},
		{"varint min", d.Varint(), int64(math.MinInt64)},
		{"varint max", d.Varint(), int64(math.MaxInt64)},
		{"int", d.Int(), -42},
		{"bool true", d.Bool(), true},
		{"bool false", d.Bool(), false},
		{"float64", d.Float64(), 3.1415},
		{"float64 -inf", d.Float64(), math.Inf(-1)},
		{"complex", d.Complex128(), complex(1.5, -2.5)},
		{"string", d.String(), "hello, 世界"},
		{"empty string", d.String(), ""},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining bytes: %d", d.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	bs := []byte{0, 1, 2, 255}
	fs := []float64{0, -1.5, math.Pi, math.MaxFloat64}
	cs := []complex128{complex(1, 2), complex(-3, 4)}
	is := []int{0, -7, math.MaxInt / 3, math.MinInt} // wide, and an int on a 32-bit host too
	e.PutBytes(bs)
	e.PutFloat64s(fs)
	e.PutComplex128s(cs)
	e.PutInts(is)
	e.PutBytes(nil)
	e.PutFloat64s(nil)

	d := NewDecoder(e.Bytes())
	gotB := d.BytesCopy()
	gotF := d.Float64s()
	gotC := d.Complex128s()
	gotI := d.Ints()
	emptyB := d.Bytes()
	emptyF := d.Float64s()
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if string(gotB) != string(bs) {
		t.Errorf("bytes: got %v want %v", gotB, bs)
	}
	for i := range fs {
		if gotF[i] != fs[i] {
			t.Errorf("float64s[%d]: got %v want %v", i, gotF[i], fs[i])
		}
	}
	for i := range cs {
		if gotC[i] != cs[i] {
			t.Errorf("complex128s[%d]: got %v want %v", i, gotC[i], cs[i])
		}
	}
	for i := range is {
		if gotI[i] != is[i] {
			t.Errorf("ints[%d]: got %v want %v", i, gotI[i], is[i])
		}
	}
	if len(emptyB) != 0 || len(emptyF) != 0 {
		t.Errorf("empty slices decoded non-empty: %v %v", emptyB, emptyF)
	}
}

func TestFloat64sInto(t *testing.T) {
	e := NewEncoder(0)
	src := []float64{1, 2, 3, 4}
	e.PutFloat64s(src)
	dst := make([]float64, 4)
	d := NewDecoder(e.Bytes())
	d.Float64sInto(dst)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], src[i])
		}
	}

	// Length mismatch must error, not panic.
	d = NewDecoder(e.Bytes())
	d.Float64sInto(make([]float64, 3))
	if d.Err() == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestRefRoundTrip(t *testing.T) {
	refs := []Ref{
		{},
		{Machine: 0, Object: 1, Class: "pagedev.Device"},
		{Machine: 255, Object: math.MaxUint64, Class: "x"},
	}
	e := NewEncoder(0)
	for _, r := range refs {
		e.PutRef(r)
	}
	e.PutRefs(refs)
	d := NewDecoder(e.Bytes())
	for i, want := range refs {
		if got := d.Ref(); got != want {
			t.Errorf("ref %d: got %v want %v", i, got, want)
		}
	}
	got := d.Refs()
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("refs[%d]: got %v want %v", i, got[i], refs[i])
		}
	}
	if !refs[0].IsNil() {
		t.Error("zero Ref should be nil")
	}
	if refs[1].IsNil() {
		t.Error("non-zero Ref should not be nil")
	}
}

func TestRefString(t *testing.T) {
	if s := (Ref{}).String(); s != "ref(nil)" {
		t.Errorf("nil ref string: %q", s)
	}
	r := Ref{Machine: 3, Object: 17, Class: "c"}
	if s := r.String(); s != "ref(c@m3#17)" {
		t.Errorf("ref string: %q", s)
	}
}

func TestTruncationErrors(t *testing.T) {
	e := NewEncoder(0)
	e.PutString("hello")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.String()
		if d.Err() == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}

	// Sticky errors: after one failure all reads return zero values.
	d := NewDecoder(nil)
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	if v := d.Float64(); v != 0 {
		t.Errorf("read after error: %v", v)
	}
	if s := d.String(); s != "" {
		t.Errorf("read after error: %q", s)
	}
}

func TestCorruptBool(t *testing.T) {
	d := NewDecoder([]byte{7})
	_ = d.Bool()
	if d.Err() == nil {
		t.Fatal("expected corrupt bool error")
	}
}

func TestHugeLengthRejected(t *testing.T) {
	// A corrupt length prefix must not cause a giant allocation — nor wrap
	// the bytes-needed product past the check: 8<<61, 16<<60, 3*(1<<63+...)
	// are all 0 or small mod 2^64, and make would panic on the count.
	for _, n := range []uint64{math.MaxUint64 / 2, 1 << 60, 1 << 61, 1 << 63, math.MaxUint64/3 + 1, math.MaxUint64} {
		e := NewEncoder(0)
		e.PutUvarint(n)
		e.PutBytes(make([]byte, 64)) // something behind the prefix, as in a real frame
		for name, read := range map[string]func(d *Decoder) bool{
			"Float64s":        func(d *Decoder) bool { return d.Float64s() == nil },
			"Complex128s":     func(d *Decoder) bool { return d.Complex128s() == nil },
			"Ints":            func(d *Decoder) bool { return d.Ints() == nil },
			"Refs":            func(d *Decoder) bool { return d.Refs() == nil },
			"Float64sLen":     func(d *Decoder) bool { return d.Float64sLen() == 0 },
			"Complex128sLen":  func(d *Decoder) bool { return d.Complex128sLen() == 0 },
			"Float64sInto":    func(d *Decoder) bool { d.Float64sInto(make([]float64, 4)); return true },
			"Complex128sInto": func(d *Decoder) bool { d.Complex128sInto(make([]complex128, 4)); return true },
		} {
			d := NewDecoder(e.Bytes())
			if !read(d) || !errors.Is(d.Err(), ErrTruncated) {
				t.Errorf("%s with length prefix %#x: err %v, want ErrTruncated and no value", name, n, d.Err())
			}
		}
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.PutString("abc")
	if e.Len() == 0 {
		t.Fatal("expected bytes")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	e.PutInt(7)
	d := NewDecoder(e.Bytes())
	if d.Int() != 7 || d.Err() != nil {
		t.Fatal("encoder unusable after reset")
	}
}

// Property: any sequence of (uint64, int64, float64, string, bytes) values
// round-trips exactly.
func TestQuickScalarRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, fl float64, s string, b []byte) bool {
		e := NewEncoder(0)
		e.PutUvarint(u)
		e.PutVarint(i)
		e.PutFloat64(fl)
		e.PutString(s)
		e.PutBytes(b)
		d := NewDecoder(e.Bytes())
		gu := d.Uvarint()
		gi := d.Varint()
		gf := d.Float64()
		gs := d.String()
		gb := d.BytesCopy()
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		if gu != u || gi != i || gs != s || string(gb) != string(b) {
			return false
		}
		// NaN compares unequal to itself; compare bit patterns.
		return math.Float64bits(gf) == math.Float64bits(fl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: packed float64 slices round-trip bit-exactly.
func TestQuickFloat64sRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		e := NewEncoder(0)
		e.PutFloat64s(v)
		d := NewDecoder(e.Bytes())
		got := d.Float64s()
		if d.Err() != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics; it either succeeds or
// reports an error.
func TestQuickDecodeGarbageNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		d := NewDecoder(b)
		_ = d.Ref()
		_ = d.String()
		_ = d.Float64s()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeFloat64s(b *testing.B) {
	v := make([]float64, 4096)
	for i := range v {
		v[i] = float64(i)
	}
	e := NewEncoder(8 * len(v))
	b.SetBytes(int64(8 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutFloat64s(v)
	}
}

func BenchmarkDecodeFloat64s(b *testing.B) {
	v := make([]float64, 4096)
	e := NewEncoder(8 * len(v))
	e.PutFloat64s(v)
	buf := e.Bytes()
	dst := make([]float64, len(v))
	b.SetBytes(int64(8 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		d.Float64sInto(dst)
	}
}
