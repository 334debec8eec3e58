package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// codecCase checks one codec on arbitrary bytes; see FuzzCodecs.
type codecCase struct {
	name  string
	check func(t *testing.T, data []byte)
}

// caseOf is the FuzzCodecs property for codec c: Get never panics; when it
// succeeds, Put of what it read re-encodes exactly the bytes it consumed,
// and every shorter prefix of them fails to decode.
func caseOf[T any](name string, c Codec[T]) codecCase {
	return codecCase{name, func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		v, err := c.Get(d)
		if err != nil {
			return
		}
		n := len(data) - d.Remaining()
		e := NewEncoder(0)
		c.Put(e, v)
		if !bytes.Equal(e.Bytes(), data[:n]) {
			t.Fatalf("%s: read %x as %v, which encodes as %x", name, data[:n], v, e.Bytes())
		}
		for k := 0; k < n; k++ {
			if _, err := c.Get(NewDecoder(data[:k])); err == nil {
				t.Fatalf("%s: the %d-byte prefix of %x decodes", name, k, data[:n])
			}
		}
	}}
}

// codecs is every codec the package exports.
var codecs = []codecCase{
	caseOf("Int", Int),
	caseOf("Float64", Float64),
	caseOf("String", String),
	caseOf("RemoteRef", RemoteRef),
	caseOf("Void", Void),
}

// FuzzCodecs holds every exported codec's Get to being a pure decoder of
// arbitrary bytes (see caseOf).
func FuzzCodecs(f *testing.F) {
	e := NewEncoder(0)
	e.PutInt(-300)
	e.PutFloat64(math.NaN())
	e.PutString("pfft.Worker")
	e.PutRefs([]Ref{{Machine: 1, Object: 42, Class: "pagedev.PageDevice"}, {}})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})                      // an overlong zero
	f.Add([]byte{0x02, 0x00, 0x2a})                // a ref cut short
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1}) // a length past the frame
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			c.check(t, data)
		}
	})
}

// TestCodecRoundTrip puts values through each codec and reads them back.
func TestCodecRoundTrip(t *testing.T) {
	ref := Ref{Machine: 1, Object: 2, Class: "k"}
	e := NewEncoder(0)
	Int.Put(e, -17)
	Float64.Put(e, 3.25)
	String.Put(e, "s")
	RemoteRef.Put(e, ref)
	Void.Put(e, struct{}{})
	d := NewDecoder(e.Bytes())
	for _, c := range []struct {
		get  func() (any, error)
		want any
	}{
		{func() (any, error) { return Int.Get(d) }, -17},
		{func() (any, error) { return Float64.Get(d) }, 3.25},
		{func() (any, error) { return String.Get(d) }, "s"},
		{func() (any, error) { return RemoteRef.Get(d) }, ref},
		{func() (any, error) { return Void.Get(d) }, struct{}{}},
	} {
		if got, err := c.get(); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("got %#v, %v; want %#v", got, err, c.want)
		}
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left over", d.Remaining())
	}
}

// TestOverlongVarintIsCorrupt checks that a varint longer than its
// shortest form is refused, so that a decoded value re-encodes to the
// bytes it came from.
func TestOverlongVarintIsCorrupt(t *testing.T) {
	for _, b := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}} {
		if d := NewDecoder(b); d.Uvarint() != 0 || !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("Uvarint(%x): %v, want ErrCorrupt", b, d.Err())
		}
		if d := NewDecoder(b); d.Varint() != 0 || !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("Varint(%x): %v, want ErrCorrupt", b, d.Err())
		}
	}
	if d := NewDecoder([]byte{0x00, 0x80, 0x01}); d.Uvarint() != 0 || d.Uvarint() != 128 || d.Err() != nil {
		t.Errorf("shortest forms refused: %v", d.Err())
	}
}
