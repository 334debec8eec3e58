package wire

// Codec is the encoding of one value type on the wire: Put appends a
// value and Get reads one back. A remote method's argument list and its
// result each have one (rmi.DeclareOp), so the stub that writes a call and
// the body that reads it share a single description of its bytes, as the
// paper's compiler-generated protocol does. Get is a pure function of the
// bytes, and fails on a short or malformed input.
type Codec[T any] struct {
	Put func(e *Encoder, v T)
	Get func(d *Decoder) (T, error)
}

// CodecOf builds a Codec from a writer and a reader of T's fields in
// order, the reader leaving any error on the decoder (as the Decoder's own
// methods do). It is the way to write a struct's codec once, next to the
// type:
//
//	var setCodec = wire.CodecOf(
//		func(e *wire.Encoder, a setArgs) { e.PutInt(a.i); e.PutFloat64(a.v) },
//		func(d *wire.Decoder) setArgs { return setArgs{d.Int(), d.Float64()} })
func CodecOf[T any](put func(e *Encoder, v T), get func(d *Decoder) T) Codec[T] {
	return Codec[T]{Put: put, Get: func(d *Decoder) (T, error) {
		v := get(d)
		return v, d.Err()
	}}
}

// The scalar codecs; Void is an empty argument list or result.
var (
	Int       = CodecOf((*Encoder).PutInt, (*Decoder).Int)
	Float64   = CodecOf((*Encoder).PutFloat64, (*Decoder).Float64)
	String    = CodecOf((*Encoder).PutString, (*Decoder).String)
	RemoteRef = CodecOf((*Encoder).PutRef, (*Decoder).Ref)
	Void      = CodecOf(func(*Encoder, struct{}) {}, func(*Decoder) (v struct{}) { return })
)
