package pagedev

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// packSpecials are the bit patterns a bulk copy and a per-element
// conversion could conceivably treat differently: NaNs with payloads
// (quiet and signalling, either sign), −0, the subnormal range's ends,
// ±Inf, and the largest and smallest normals.
var packSpecials = []uint64{
	0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8DEADBEEF0042, 0xFFF0000000000BAD, 0x7FFFFFFFFFFFFFFF,
	0x8000000000000000, 0x0000000000000000,
	0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
	0x7FF0000000000000, 0xFFF0000000000000,
	0x7FEFFFFFFFFFFFFF, 0x0010000000000000, 0x3FF0000000000000,
}

// aligned and misaligned return n bytes that do and do not start on an
// 8-byte boundary: f64view accepts the first on a little-endian host and
// must refuse the second. A plain make promises neither — a small []byte
// that does not escape sits on the stack at any address.
func aligned(n int) []byte    { return skewed(n, true) }
func misaligned(n int) []byte { return skewed(n, false) }

func skewed(n int, viewable bool) []byte {
	buf := make([]byte, n+8)
	for off := 0; off < 8; off++ {
		if b := buf[off : off+n : off+n]; (f64view(b) != nil) == viewable {
			return b
		}
	}
	return buf[:n:n] // no offset is viewable: big-endian host, or n not a multiple of 8
}

// checkPackUnpack pins Float64sToBytes/BytesToFloat64s (the wire's pack
// primitive; its byte-order fallback is held equal to the copy in
// internal/wire) to the format: for these bit patterns, an aligned buffer
// and a deliberately misaligned one hold the same little-endian bytes,
// and both unpack to the same bits.
func checkPackUnpack(t *testing.T, bits []uint64) {
	t.Helper()
	vals := make([]float64, len(bits))
	want := make([]byte, 8*len(bits))
	for i, b := range bits {
		vals[i] = math.Float64frombits(b)
		binary.LittleEndian.PutUint64(want[8*i:], b)
	}
	for name, dst := range map[string][]byte{"aligned": aligned(len(want)), "misaligned": misaligned(len(want))} {
		if err := Float64sToBytes(dst, vals); err != nil {
			t.Fatalf("%s pack: %v", name, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("%s pack differs from little-endian PutUint64:\n got %x\nwant %x", name, dst, want)
		}
		got := make([]float64, len(vals))
		if err := BytesToFloat64s(got, dst); err != nil {
			t.Fatalf("%s unpack: %v", name, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != bits[i] {
				t.Fatalf("%s unpack [%d] = %#x, want %#x", name, i, math.Float64bits(got[i]), bits[i])
			}
		}
	}
}

func TestPackUnpackSpecials(t *testing.T) { checkPackUnpack(t, packSpecials) }

func FuzzPackUnpack(f *testing.F) {
	seed := make([]byte, 8*len(packSpecials))
	for i, b := range packSpecials {
		binary.BigEndian.PutUint64(seed[8*i:], b)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bits := make([]uint64, len(raw)/8)
		for i := range bits {
			bits[i] = binary.BigEndian.Uint64(raw[8*i:])
		}
		checkPackUnpack(t, bits)
	})
}

// TestF64ViewSaysNo pins the helper's three refusals and, where it says
// yes, that the view is the bytes themselves.
func TestF64ViewSaysNo(t *testing.T) {
	if f64view(nil) != nil || f64view([]byte{}) != nil {
		t.Error("empty slice viewed")
	}
	if f64view(make([]byte, 12)) != nil {
		t.Error("12 bytes viewed as float64s")
	}
	if f64view(misaligned(16)) != nil {
		t.Error("misaligned bytes viewed")
	}
	b := aligned(16)
	v := f64view(b)
	if !hostLittleEndian {
		if v != nil {
			t.Error("big-endian host viewed little-endian page bytes")
		}
		return
	}
	if len(v) != 2 {
		t.Fatalf("view of 16 aligned bytes has %d elements", len(v))
	}
	v[1] = 1
	if binary.LittleEndian.Uint64(b[8:]) != math.Float64bits(1) {
		t.Error("a store through the view did not reach the bytes")
	}
}
