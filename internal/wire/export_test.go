package wire

// SetHostLittleEndian makes the package act as on a host whose float64s
// are (le) or are not in the wire's byte order, so that the copying path
// of a big-endian host runs on any host; the returned func puts the real
// order back.
func SetHostLittleEndian(le bool) (restore func()) {
	old := hostLittleEndian
	hostLittleEndian = le
	return func() { hostLittleEndian = old }
}

// The scalar and allocating complex forms, which only the tests write and
// read: a pfft piece is packed from and unpacked into its slab.

// PutComplex128 appends a complex128 as two float64s.
func (e *Encoder) PutComplex128(v complex128) {
	e.PutFloat64(real(v))
	e.PutFloat64(imag(v))
}

// Complex128 reads a complex128.
func (d *Decoder) Complex128() complex128 {
	re := d.Float64()
	im := d.Float64()
	return complex(re, im)
}

// Complex128s reads a length-prefixed packed []complex128.
func (d *Decoder) Complex128s() []complex128 {
	n, ok := d.bulkLen(16)
	if !ok {
		return nil
	}
	out := make([]complex128, n)
	d.CopyComplex128s(out)
	return out
}
