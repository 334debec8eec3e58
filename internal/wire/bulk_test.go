package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// bulkSpecials are bit patterns a memory copy and a per-element conversion
// could conceivably treat differently: NaNs with payloads (quiet and
// signalling, either sign), -0, subnormals, infinities.
var bulkSpecials = []uint64{
	0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8DEADBEEF0042, 0xFFF0000000000BAD,
	0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x7FF0000000000000,
	0xFFF0000000000000, 0x3FF0000000000000,
}

func specialBytes() []byte {
	b := make([]byte, 0, 8*len(bulkSpecials))
	for _, v := range bulkSpecials {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzBulkFloat64sEqualPortable: whatever the bytes and wherever in a frame
// they start (odd offsets included — a frame's payload is aligned to
// nothing), the bulk pack and unpack are the portable loops byte for byte
// and bit for bit. The portable forms are called directly, so the path a
// big-endian host takes is exercised on a little-endian one; the encoder
// and decoder, whole and run-wise, and the complex128 twins are held to
// the same bytes.
func FuzzBulkFloat64sEqualPortable(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(specialBytes(), uint8(1))
	f.Add(specialBytes(), uint8(8))
	f.Add(bytes.Repeat([]byte{0xA5, 0x00, 0xFF, 0x7F}, 67), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, offset uint8) {
		off := int(offset)
		n := len(data) / 8
		packed := data[:8*n]

		// Unpack, from an arbitrary offset of a larger buffer.
		frame := append(make([]byte, off, off+len(packed)+5), packed...)
		frame = append(frame, 1, 2, 3, 4, 5)
		want := make([]float64, n)
		unpackFloat64sPortable(want, frame[off:])
		got := make([]float64, n)
		UnpackFloat64s(got, frame[off:])
		if !sameFloatBits(got, want) {
			t.Fatalf("UnpackFloat64s at offset %d differs from the portable loop", off)
		}

		// Pack, to an arbitrary offset; neither writes outside its 8n bytes.
		a, b := make([]byte, off+8*n+3), make([]byte, off+8*n+3)
		PackFloat64s(a[off:], want)
		packFloat64sPortable(b[off:], want)
		if !bytes.Equal(a, b) || !bytes.Equal(a[off:off+8*n], packed) {
			t.Fatalf("PackFloat64s at offset %d differs from the portable loop or from the bytes unpacked", off)
		}

		// The encoder, whole and in runs, behind off bytes of other fields.
		ref := bytes.Repeat([]byte{0xEE}, off)
		ref = binary.AppendUvarint(ref, uint64(n))
		ref = append(ref, packed...)
		whole, runs := NewEncoder(0), NewEncoder(0)
		whole.buf = append(whole.buf, ref[:off]...)
		whole.PutFloat64s(want)
		runs.buf = append(runs.buf, ref[:off]...)
		runs.PutFloat64sLen(n)
		cut := n / 3
		runs.AppendFloat64s(want[:cut])
		runs.AppendFloat64s(nil)
		runs.AppendFloat64s(want[cut:])
		if !bytes.Equal(whole.Bytes(), ref) || !bytes.Equal(runs.Bytes(), ref) {
			t.Fatalf("encoded block differs from prefix + portable bytes (offset %d, n %d)", off, n)
		}

		// The decoder, whole, in runs, and as a view taken in runs.
		d := NewDecoder(ref[off:])
		if out := d.Float64s(); d.Err() != nil || !sameFloatBits(out, want) {
			t.Fatalf("Float64s: %v", d.Err())
		}
		d = NewDecoder(ref[off:])
		clear(got)
		d.Float64sInto(got)
		if d.Err() != nil || d.Remaining() != 0 || !sameFloatBits(got, want) {
			t.Fatalf("Float64sInto: %v, %d bytes left", d.Err(), d.Remaining())
		}
		d = NewDecoder(ref[off:])
		if m := d.Float64sLen(); m != n || d.Err() != nil {
			t.Fatalf("Float64sLen = %d, %v, want %d", m, d.Err(), n)
		}
		clear(got)
		d.CopyFloat64s(got[:cut])
		d.CopyFloat64s(got[cut:])
		if d.Err() != nil || d.Remaining() != 0 || !sameFloatBits(got, want) {
			t.Fatalf("run-wise decode: %v, %d bytes left", d.Err(), d.Remaining())
		}
		d = NewDecoder(ref[off:])
		view := d.Float64sView()
		if d.Err() != nil || d.Remaining() != 0 || !bytes.Equal(view, packed) {
			t.Fatalf("Float64sView: %v, %d bytes left, the view is not the packed values", d.Err(), d.Remaining())
		}
		clear(got)
		UnpackFloat64s(got[cut:], view[8*cut:]) // the later run first
		UnpackFloat64s(got[:cut], view)
		if !sameFloatBits(got, want) {
			t.Fatal("runs unpacked from a view, last first, differ from the values")
		}

		// complex128: real before imaginary, each a float64 as above.
		cs := make([]complex128, n/2)
		for i := range cs {
			cs[i] = complex(want[2*i], want[2*i+1])
		}
		ce, cruns := NewEncoder(0), NewEncoder(0)
		ce.PutComplex128s(cs)
		ccut := len(cs) / 3
		cruns.PutComplex128sLen(len(cs))
		cruns.AppendComplex128s(cs[:ccut])
		cruns.AppendComplex128s(nil)
		cruns.AppendComplex128s(cs[ccut:])
		cref := append(binary.AppendUvarint(nil, uint64(len(cs))), packed[:16*len(cs)]...)
		if !bytes.Equal(ce.Bytes(), cref) || !bytes.Equal(cruns.Bytes(), cref) {
			t.Fatalf("PutComplex128s, whole or in runs, differs from the portable bytes")
		}
		back := NewDecoder(cref).Complex128s()
		into := make([]complex128, len(cs))
		cd := NewDecoder(cref)
		cd.Complex128sInto(into)
		if cd.Err() != nil || len(back) != len(cs) {
			t.Fatalf("complex decode: %v, %d values", cd.Err(), len(back))
		}
		inRuns := make([]complex128, len(cs))
		cd = NewDecoder(cref)
		if m := cd.Complex128sLen(); m != len(cs) || cd.Err() != nil {
			t.Fatalf("Complex128sLen = %d, %v, want %d", m, cd.Err(), len(cs))
		}
		cd.CopyComplex128s(inRuns[:ccut])
		cd.CopyComplex128s(inRuns[ccut:])
		if cd.Err() != nil || cd.Remaining() != 0 {
			t.Fatalf("run-wise complex decode: %v, %d bytes left", cd.Err(), cd.Remaining())
		}
		for i := range cs {
			for _, c := range []complex128{back[i], into[i], inRuns[i]} {
				if math.Float64bits(real(c)) != math.Float64bits(want[2*i]) || math.Float64bits(imag(c)) != math.Float64bits(want[2*i+1]) {
					t.Fatalf("complex value %d decoded with other bits", i)
				}
			}
		}
	})
}

// FuzzFloat64sDecodeNoPanic: every bulk reader, prefixed or run-wise, over
// arbitrary bytes either yields values or reports an error — it never
// panics, never sizes anything by an unchecked count, and a length
// Float64sLen has accepted is one the runs can then be taken at, and the
// one whose bytes Float64sView returns.
func FuzzFloat64sDecodeNoPanic(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(append([]byte{3}, make([]byte, 24)...), uint16(2))
	f.Add(append([]byte{3}, make([]byte, 23)...), uint16(3)) // one byte short
	f.Add(binary.AppendUvarint(nil, 1<<61), uint16(1))
	f.Add(binary.AppendUvarint(nil, 1<<60), uint16(1))
	f.Add(binary.AppendUvarint(nil, 1<<63), uint16(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, uint16(9)) // varint overflow
	f.Fuzz(func(t *testing.T, data []byte, want uint16) {
		for _, read := range []func(d *Decoder){
			func(d *Decoder) { d.Float64s() },
			func(d *Decoder) { d.Complex128s() },
			func(d *Decoder) { d.Float64sInto(make([]float64, want)) },
			func(d *Decoder) { d.Complex128sInto(make([]complex128, want)) },
			func(d *Decoder) { d.Refs() },
			func(d *Decoder) { d.Ints() },
			func(d *Decoder) { d.CopyFloat64s(make([]float64, want)) },
			func(d *Decoder) { d.CopyComplex128s(make([]complex128, want)) },
			func(d *Decoder) { d.Float64sView() },
		} {
			d := NewDecoder(data)
			read(d)
			if d.Err() == nil && d.Remaining() > len(data) {
				t.Fatalf("decoder ran backwards: %d of %d bytes left", d.Remaining(), len(data))
			}
		}
		d := NewDecoder(data)
		n := d.Float64sLen()
		if d.Err() != nil {
			if n != 0 {
				t.Fatalf("Float64sLen failed (%v) yet returned %d", d.Err(), n)
			}
			return
		}
		if n < 0 || n > d.Remaining()/8 {
			t.Fatalf("Float64sLen accepted %d values with %d bytes left", n, d.Remaining())
		}
		part := min(n, int(want))
		d.CopyFloat64s(make([]float64, part))
		d.CopyFloat64s(make([]float64, n-part))
		if d.Err() != nil {
			t.Fatalf("runs within an accepted length failed: %v", d.Err())
		}
		d.CopyFloat64s(make([]float64, d.Remaining()/8+1))
		if d.Err() == nil {
			t.Fatal("a run past the end of the frame was accepted")
		}
		if d = NewDecoder(data); len(d.Float64sView()) != 8*n || d.Err() != nil {
			t.Fatalf("Float64sView of an accepted length is not its %d values: %v", n, d.Err())
		}

		// The complex count is held to the same: accepted means every value
		// can be taken.
		d = NewDecoder(data)
		n = d.Complex128sLen()
		if d.Err() != nil {
			if n != 0 {
				t.Fatalf("Complex128sLen failed (%v) yet returned %d", d.Err(), n)
			}
			return
		}
		if n < 0 || n > d.Remaining()/16 {
			t.Fatalf("Complex128sLen accepted %d values with %d bytes left", n, d.Remaining())
		}
		part = min(n, int(want))
		d.CopyComplex128s(make([]complex128, part))
		d.CopyComplex128s(make([]complex128, n-part))
		if d.Err() != nil {
			t.Fatalf("complex runs within an accepted length failed: %v", d.Err())
		}
	})
}
