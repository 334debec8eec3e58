package wire

import "fmt"

// Ref is a remote pointer: the identity of an object (process) living on a
// machine. It is defined here, in the codec package, so that refs can be
// encoded like any other value; internal/rmi aliases it as rmi.Ref.
//
// The zero Ref is "nil": it points at no object (Machine -1 is never a
// valid machine, but we use Object==0 && Class=="" as the nil test so the
// zero value works naturally).
type Ref struct {
	Machine int    // machine (node) index hosting the object
	Object  uint64 // per-machine object identifier (1-based; 0 = nil)
	Class   string // registered class name
}

// IsNil reports whether r points at no object.
func (r Ref) IsNil() bool { return r.Object == 0 && r.Class == "" }

// String implements fmt.Stringer.
func (r Ref) String() string {
	if r.IsNil() {
		return "ref(nil)"
	}
	return fmt.Sprintf("ref(%s@m%d#%d)", r.Class, r.Machine, r.Object)
}

// PutRef appends a remote pointer.
func (e *Encoder) PutRef(r Ref) {
	e.PutVarint(int64(r.Machine))
	e.PutUvarint(r.Object)
	e.PutString(r.Class)
}

// Ref reads a remote pointer.
func (d *Decoder) Ref() Ref {
	m := int(d.Varint())
	o := d.Uvarint()
	c := d.String()
	if d.err != nil {
		return Ref{}
	}
	return Ref{Machine: m, Object: o, Class: c}
}

// PutRefs appends a length-prefixed slice of remote pointers.
func (e *Encoder) PutRefs(rs []Ref) {
	e.PutUvarint(uint64(len(rs)))
	for _, r := range rs {
		e.PutRef(r)
	}
}

// Refs reads a length-prefixed slice of remote pointers.
func (d *Decoder) Refs() []Ref {
	n, ok := d.bulkLen(3) // each ref takes >= 3 bytes
	if !ok {
		return nil
	}
	out := make([]Ref, n)
	for i := range out {
		out[i] = d.Ref()
	}
	if d.err != nil {
		return nil
	}
	return out
}
