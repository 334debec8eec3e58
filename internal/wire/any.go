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

// Type tags for the tagged "any" layer used by generic calls
// (rmi.Client.Call with ...any arguments). Typed stubs avoid this layer.
const (
	tagNil = iota
	tagBool
	tagInt
	tagUint
	tagFloat64
	tagComplex128
	tagString
	tagBytes
	tagFloat64s
	tagComplex128s
	tagInts
	tagRef
	tagRefs
)

// PutAny appends a type-tagged value. Supported dynamic types: nil, bool,
// int, int32, int64, uint64, float64, complex128, string, []byte,
// []float64, []complex128, []int, Ref, []Ref. It returns an error for any
// other type rather than panicking, because arguments cross a trust
// boundary.
func (e *Encoder) PutAny(v any) error {
	switch x := v.(type) {
	case nil:
		e.PutUvarint(tagNil)
	case bool:
		e.PutUvarint(tagBool)
		e.PutBool(x)
	case int:
		e.PutUvarint(tagInt)
		e.PutVarint(int64(x))
	case int32:
		e.PutUvarint(tagInt)
		e.PutVarint(int64(x))
	case int64:
		e.PutUvarint(tagInt)
		e.PutVarint(x)
	case uint64:
		e.PutUvarint(tagUint)
		e.PutUvarint(x)
	case float64:
		e.PutUvarint(tagFloat64)
		e.PutFloat64(x)
	case complex128:
		e.PutUvarint(tagComplex128)
		e.PutComplex128(x)
	case string:
		e.PutUvarint(tagString)
		e.PutString(x)
	case []byte:
		e.PutUvarint(tagBytes)
		e.PutBytes(x)
	case []float64:
		e.PutUvarint(tagFloat64s)
		e.PutFloat64s(x)
	case []complex128:
		e.PutUvarint(tagComplex128s)
		e.PutComplex128s(x)
	case []int:
		e.PutUvarint(tagInts)
		e.PutInts(x)
	case Ref:
		e.PutUvarint(tagRef)
		e.PutRef(x)
	case []Ref:
		e.PutUvarint(tagRefs)
		e.PutRefs(x)
	default:
		return fmt.Errorf("wire: unsupported argument type %T", v)
	}
	return nil
}

// Any reads a type-tagged value written by PutAny.
func (d *Decoder) Any() (any, error) {
	tag := d.Uvarint()
	if d.err != nil {
		return nil, d.err
	}
	var v any
	switch tag {
	case tagNil:
		v = nil
	case tagBool:
		v = d.Bool()
	case tagInt:
		v = int(d.Varint())
	case tagUint:
		v = d.Uvarint()
	case tagFloat64:
		v = d.Float64()
	case tagComplex128:
		v = d.Complex128()
	case tagString:
		v = d.String()
	case tagBytes:
		v = d.BytesCopy()
	case tagFloat64s:
		v = d.Float64s()
	case tagComplex128s:
		v = d.Complex128s()
	case tagInts:
		v = d.Ints()
	case tagRef:
		v = d.Ref()
	case tagRefs:
		v = d.Refs()
	default:
		d.fail(fmt.Errorf("%w: unknown any tag %d", ErrCorrupt, tag))
	}
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// PutAnys appends a length-prefixed sequence of tagged values.
func (e *Encoder) PutAnys(vs []any) error {
	e.PutUvarint(uint64(len(vs)))
	for _, v := range vs {
		if err := e.PutAny(v); err != nil {
			return err
		}
	}
	return nil
}

// Anys reads a length-prefixed sequence of tagged values.
func (d *Decoder) Anys() ([]any, error) {
	n, ok := d.bulkLen(1) // a tagged value takes >= 1 byte
	if !ok {
		return nil, d.err
	}
	out := make([]any, n)
	for i := range out {
		v, err := d.Any()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
