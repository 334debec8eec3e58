// Package pagedev implements the paper's storage process hierarchy (§2-§3):
//
//	Page            — a block of unstructured bytes
//	PageDevice      — a process storing fixed-size pages on a device
//	ArrayPage       — a structured N1×N2×N3 block of float64s
//	ArrayPageDevice — a process derived from PageDevice that understands
//	                  the array structure of its pages (remote sum, etc.)
//
// PageDevice objects are remote processes: created with the remote new,
// invoked through remote pointers, terminated by delete. ArrayPageDevice
// demonstrates process inheritance (§3) — it inherits the base read/write
// protocol and adds structure-aware methods, so the choice between
// "moving the data to the computation" (read + local sum) and "moving the
// computation to the data" (remote sum) is a one-line change for the
// programmer (§3), measured by experiment E4.
package pagedev

import (
	"fmt"

	"oopp/internal/wire"
)

// Page is a block of unstructured data, the unit a PageDevice stores.
type Page struct {
	Data []byte
}

// NewPage allocates an n-byte page.
func NewPage(n int) *Page { return &Page{Data: make([]byte, n)} }

// ArrayPage is a three-dimensional N1×N2×N3 block of float64s stored in
// row-major order (k fastest), the unit an ArrayPageDevice stores.
type ArrayPage struct {
	N1, N2, N3 int
	Data       []float64
}

// NewArrayPage allocates an N1×N2×N3 array page.
func NewArrayPage(n1, n2, n3 int) *ArrayPage {
	return &ArrayPage{N1: n1, N2: n2, N3: n3, Data: make([]float64, n1*n2*n3)}
}

// Sum returns the sum of all elements — the method the paper adds to
// ArrayPage "as an example of a method that uses the array structure".
func (p *ArrayPage) Sum() float64 {
	var s float64
	for _, v := range p.Data {
		s += v
	}
	return s
}

// Float64sToBytes packs vals into little-endian bytes (the on-device page
// representation, which is the wire's: wire.PackFloat64s). dst must be
// 8*len(vals) bytes.
func Float64sToBytes(dst []byte, vals []float64) error {
	if len(dst) != 8*len(vals) {
		return fmt.Errorf("pagedev: pack buffer %d bytes for %d floats", len(dst), len(vals))
	}
	wire.PackFloat64s(dst, vals)
	return nil
}

// BytesToFloat64s unpacks little-endian bytes into vals (8*len(vals) of
// them).
func BytesToFloat64s(vals []float64, src []byte) error {
	if len(src) != 8*len(vals) {
		return fmt.Errorf("pagedev: unpack %d bytes into %d floats", len(src), len(vals))
	}
	wire.UnpackFloat64s(vals, src)
	return nil
}
