package wire

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Bulk values travel packed: element i of a []float64 is the 8 bytes at
// 8i, its IEEE-754 bits little endian; a complex128 is its real part, then
// its imaginary part. On a host that keeps a float64 in memory the same
// way, packing is one copy — and this file is the only place in the package
// that looks at memory to do it. The cast always goes from the typed slice
// to bytes: a []float64 starts on an 8-byte boundary and any byte of it
// may be read or written, whereas a frame's bytes at some offset need not
// be aligned, so nothing here (or anywhere) views frame bytes as floats.

// hostLittleEndian reports whether a float64 in this process's memory has
// the byte order of the wire.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes returns the memory of v as bytes. The result aliases v.
func float64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// complexFloats returns v as its 2*len(v) parts, real before imaginary as
// on the wire — so the complex packers are the float64 ones. The result
// aliases v.
func complexFloats(v []complex128) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(v))), 2*len(v))
}

// PackFloat64s writes v as 8*len(v) packed bytes at the start of dst, which
// must be at least that long — the format of a stored page as well as of a
// frame.
func PackFloat64s(dst []byte, v []float64) {
	if hostLittleEndian {
		copy(dst[:8*len(v)], float64Bytes(v))
		return
	}
	packFloat64sPortable(dst, v)
}

// UnpackFloat64s fills dst from the 8*len(dst) packed bytes at the start of
// src, which must be at least that long.
func UnpackFloat64s(dst []float64, src []byte) {
	if hostLittleEndian {
		copy(float64Bytes(dst), src[:8*len(dst)])
		return
	}
	unpackFloat64sPortable(dst, src)
}

// The portable forms are what a big-endian host runs. They define the
// format; FuzzBulkFloat64sEqualPortable holds the copies equal to them.

func packFloat64sPortable(dst []byte, v []float64) {
	dst = dst[:8*len(v)]
	for i, f := range v {
		binary.LittleEndian.PutUint64(dst[8*i:8*i+8:8*i+8], math.Float64bits(f))
	}
}

func unpackFloat64sPortable(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i : 8*i+8 : 8*i+8]))
	}
}
