package pagedev

import (
	"encoding/binary"
	"unsafe"

	"oopp/internal/bufpool"
)

// The one place the module views bytes as float64s (wire/bulk.go views
// float64s as bytes, which needs no alignment, to copy them). A stored
// page is packed little-endian float64s; on a host that lays a float64 out
// the same way the page's bytes ARE its elements. Callers ask f64view and
// take the copying path when it answers nil.

// hostLittleEndian reports whether a float64 in this process's memory
// has the byte order of a stored page.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64view returns the memory of b as float64s, without copying, or nil
// ("no view") unless the host is little-endian, b starts on an 8-byte
// boundary (not a given: a []byte may start anywhere, and a 32-bit
// allocator aligns to 4) and b holds a whole number of values. The
// result aliases b: a store through one is a store through the other.
func f64view(b []byte) []float64 {
	if !hostLittleEndian || len(b) == 0 || len(b)%8 != 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%8 != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(p), len(b)/8)
}

// GetFloat64s takes room for n float64s from the buffer pool: values a
// transfer stages between a caller's array and its frames. PutFloat64s
// gives it back. Where the pool's bytes cannot be viewed as float64s, as
// on a big-endian host, the room is a plain allocation; there PutFloat64s
// leaves it to the collector.
func GetFloat64s(n int) []float64 {
	b := bufpool.Get(8 * n)
	if v := f64view(b[:cap(b)]); v != nil {
		return v[:n]
	}
	return make([]float64, n)
}

// PutFloat64s returns room taken with GetFloat64s; nothing may use it
// afterwards.
func PutFloat64s(v []float64) {
	if hostLittleEndian && cap(v) > 0 {
		bufpool.Put(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*cap(v)))
	}
}
