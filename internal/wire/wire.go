// Package wire implements the compact binary encoding used by the OOPP
// runtime for remote constructor arguments, method arguments and results.
//
// In the paper the client-server protocol is "generated by the compiler
// from the class description". This package is the data half of that
// protocol: a small, allocation-conscious, schema-free codec. The schema
// half (which method reads which values in which order) lives in the
// per-class stubs and method tables registered with internal/rmi.
//
// The format is deliberately simple and self-contained:
//
//   - unsigned integers: LEB128 varint
//   - signed integers: zig-zag varint
//   - float64: IEEE-754 bits, little endian
//   - complex128: two float64s
//   - string / []byte: varint length + raw bytes
//   - []float64 / []complex128: varint count + packed little-endian values
//   - Ref (remote pointer): machine varint + object varint + class string
//
// Values carry no type tags; both sides agree on the sequence from the
// class description, exactly as compiler-generated code would. A Codec
// (codec.go) is that agreement for one value type, written once and used
// by both the stub and the method body.
//
// # Pooling and buffer ownership
//
// The hot path never allocates in steady state. GetEncoder/PutEncoder and
// GetFrameDecoder/Decoder.Release recycle codec state through
// internal/bufpool capacity classes; Encoder growth itself draws from and
// returns to the same pool, so a reply that packs a bulk payload (a pfft
// transpose piece, say) grows directly into the buffer the previous one
// released.
// The lifecycle rules:
//
//   - GetEncoder(c) returns a pooled encoder; Detach() hands its frame to
//     the caller (who typically gives it to transport.Conn.Send, which
//     takes ownership); PutEncoder recycles the encoder. Using an encoder
//     after PutEncoder panics.
//   - GetFrameDecoder(frame) wraps a frame the caller owns (typically one
//     returned by Conn.Recv) and takes ownership of it; Release returns
//     frame and decoder to their pools. After Release every read returns a
//     zero value and Err reports ErrReleased.
//   - Views returned by BytesView/Bytes/StringBytes alias the frame: they
//     are valid only until Release. Copy (BytesCopy) anything that must
//     outlive the decode.
//
// # Bulk values
//
// A []float64 or []complex128 crosses in one pass per side: PackFloat64s
// and UnpackFloat64s (bulk.go) are a memory copy on a little-endian host
// and the byte-order loop elsewhere, the same bytes either way, and every
// bulk encoder and decoder here is built on that pair. The copy views the
// *typed* slice as bytes — always aligned, any byte of it addressable —
// and never a frame's bytes as floats: a block starts wherever the fields
// before it end. Code outside this package does not cast either; it calls
// the pair (pagedev's stored pages have the same format).
//
// A block is a count and then the packed values. A writer whose values are
// not in one slice opens the block with PutFloat64sLen and appends runs
// with AppendFloat64s (core.Array gathers a page's rows out of a larger
// array this way); a reader that must not half-store a block, or wants its
// runs somewhere other than one slice, reads the count with Float64sLen —
// which checks that every byte announced is in the frame before any is
// consumed — and takes runs with CopyFloat64s; one that takes runs in any
// order reads the block as a view of its packed bytes (Float64sView) and
// unpacks each run from there. The complex forms (PutComplex128sLen,
// AppendComplex128s, Complex128sLen, CopyComplex128s) are the same four
// over a complex128's two parts; pfft's transpose blocks cross that way.
// Counts off a socket are compared against the values that fit in what
// remains of the frame, never multiplied by the value size first.
//
// A writer whose block ends the frame, and whose values stay put until the
// frame has been sent, may lend them instead (BorrowFloat64s): the encoder
// puts the count and keeps the slice as the frame's tail, and a sender that
// writes a frame in two parts takes head and tail with DetachFrame. A
// lender that must know when the values are free again passes a giveBack:
// it runs once, when nothing refers to them any more — where the encoder
// copies them in or drops them, or else where the sender that took them
// with DetachFrame is done with the frame. The rmi client sends every
// request that way (transport.Frame), so a page write goes out of the
// caller's staging buffer without a copy into a frame; the rmi server
// sends every reply that way, so a page device answers a page read from
// the page it holds, given back once the reply has left.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"oopp/internal/bufpool"
)

// ErrTruncated is returned when a decoder runs out of input bytes.
var ErrTruncated = errors.New("wire: truncated input")

// ErrCorrupt is returned when input bytes cannot be decoded.
var ErrCorrupt = errors.New("wire: corrupt input")

// ErrReleased is reported by a decoder used after Release.
var ErrReleased = errors.New("wire: decoder used after Release")

// Encoder appends values to a byte buffer. The zero value is ready to use.
// Buffer growth goes through internal/bufpool, so pooled encoders reuse
// the capacity classes the rest of the runtime recycles frames into.
type Encoder struct {
	buf []byte
	// aliased records that Bytes() handed out a view of buf; growth and
	// PutEncoder then must not recycle the old buffer, because the view may
	// still be live elsewhere (e.g. handed to a transport).
	aliased bool
	// released poisons an encoder returned with PutEncoder: further use is
	// a pooling bug and panics rather than corrupting a recycled buffer.
	released bool
	// tail is the frame's borrowed end (BorrowFloat64s): the caller's
	// values as packed bytes, after buf and never in it, never pooled.
	tail []byte
	// giveBack is the tail's lender's, run once the encoder no longer
	// refers to the tail (letGo); nil: nothing to run.
	giveBack func()
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes, a borrowed tail copied in. The slice is
// owned by the encoder and is invalidated by further Put calls or Reset.
// Prefer Detach when the buffer's ownership should leave the encoder (e.g.
// for Conn.Send).
func (e *Encoder) Bytes() []byte {
	e.ensure(0)
	e.aliased = true
	return e.buf
}

// Detach returns the encoded frame, a borrowed tail copied in, and removes
// it from the encoder, which becomes empty. The caller owns the returned
// buffer; handing it to transport.Conn.Send passes that ownership on.
// Detach is how a pooled encoder's frame outlives PutEncoder.
func (e *Encoder) Detach() []byte {
	if e.tail != nil {
		e.grow(0)
	}
	b := e.buf
	e.buf, e.aliased = nil, false
	return b
}

// DetachFrame is Detach for a sender that writes a frame in two parts:
// head, the encoded bytes, which the caller owns as it would Detach's
// frame, then tail, the values borrowed by BorrowFloat64s (nil: none),
// which stay the lender's, and the lender's giveBack (nil: none), which
// the caller now runs, once, when the frame has left or never will. The
// frame is head followed by tail.
func (e *Encoder) DetachFrame() (head, tail []byte, giveBack func()) {
	head, tail, giveBack = e.buf, e.tail, e.giveBack
	e.buf, e.tail, e.giveBack = nil, nil, nil
	e.aliased = false
	return head, tail, giveBack
}

// Len returns the number of encoded bytes so far, a borrowed tail's
// included.
func (e *Encoder) Len() int { return len(e.buf) + len(e.tail) }

// Reset discards the encoder contents, retaining the allocation; a
// borrowed tail is let go.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.letGo()
}

// letGo ends a borrow: the encoder drops the tail and runs its giveBack.
func (e *Encoder) letGo() {
	back := e.giveBack
	e.tail, e.giveBack = nil, nil
	if back != nil {
		back()
	}
}

// ensure makes room for n more bytes after a borrowed tail, which it
// copies in first (the bytes after it are put there), growing through the
// buffer pool. A released encoder has no buffer, so a put of any byte
// reaches grow, which panics.
func (e *Encoder) ensure(n int) {
	if len(e.buf)+n <= cap(e.buf) && e.tail == nil {
		return
	}
	e.grow(n)
}

// grow is ensure's slow path, kept apart so that ensure inlines into every
// put.
func (e *Encoder) grow(n int) {
	if e.released {
		panic("wire: encoder used after PutEncoder")
	}
	if t := e.tail; t != nil {
		e.tail = nil
		e.ensure(len(t))
		e.buf = append(e.buf, t...)
		e.letGo()
	}
	if len(e.buf)+n <= cap(e.buf) {
		return
	}
	// Grow geometrically so k appends cost O(k) copies, but source the new
	// buffer from (and retire the old one to) the pool: in steady state a
	// bulk reply grows straight into the recycled bulk frame.
	need := len(e.buf) + n
	if c := 2 * cap(e.buf); need < c {
		need = c
	}
	nb := bufpool.Get(need)[:len(e.buf)]
	copy(nb, e.buf)
	if !e.aliased {
		bufpool.Put(e.buf)
	}
	e.buf = nb
	e.aliased = false
}

// PutByte appends one raw byte. Fixed-width header fields (e.g. the RMI
// priority byte) use it so they can be read from a frame by offset,
// before any decoder is attached.
func (e *Encoder) PutByte(b byte) {
	e.ensure(1)
	e.buf = append(e.buf, b)
}

// PutUvarint appends an unsigned varint.
func (e *Encoder) PutUvarint(v uint64) {
	e.ensure(binary.MaxVarintLen64)
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutVarint appends a signed (zig-zag) varint.
func (e *Encoder) PutVarint(v int64) {
	e.ensure(binary.MaxVarintLen64)
	e.buf = binary.AppendVarint(e.buf, v)
}

// PutInt appends an int as a signed varint.
func (e *Encoder) PutInt(v int) { e.PutVarint(int64(v)) }

// PutBool appends a boolean as a single byte.
func (e *Encoder) PutBool(v bool) {
	e.ensure(1)
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutFloat64 appends a float64 as 8 little-endian bytes.
func (e *Encoder) PutFloat64(v float64) {
	e.ensure(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.ensure(len(s))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	e.ensure(len(b))
	e.buf = append(e.buf, b...)
}

// PutFloat64s appends a length-prefixed packed []float64: the prefix, one
// grow for the whole block, one pack (PackFloat64s).
func (e *Encoder) PutFloat64s(v []float64) {
	e.PutFloat64sLen(len(v))
	e.AppendFloat64s(v)
}

// BorrowFloat64s appends v as PutFloat64s does, the same bytes, but borrows
// v as the frame's tail instead of copying it: only the prefix goes into
// the buffer, and a sender that takes the frame with DetachFrame writes the
// values from where they lie (transport.Frame). So v ends the frame, and
// it must not change until the frame has left — until the SendBurst that
// carries it has returned. Whatever wants the frame in one buffer copies v
// in then: Bytes, Detach, or a put after it. On a host whose float64s are
// not in the wire's byte order, v is copied at once, as by PutFloat64s.
//
// giveBack (nil: none) is the lender's, run exactly once when nothing
// refers to v any more: where v is copied in (at once, or by a join),
// where Reset or PutEncoder drops it, and otherwise by whoever took it
// with DetachFrame, once the frame has left or never will — on the
// goroutine that ends the borrow.
func (e *Encoder) BorrowFloat64s(v []float64, giveBack func()) {
	if len(v) == 0 || !hostLittleEndian {
		e.PutFloat64s(v)
		if giveBack != nil {
			giveBack()
		}
		return
	}
	e.PutUvarint(uint64(len(v)))
	e.tail, e.giveBack = float64Bytes(v), giveBack
}

// PutFloat64sLen opens a packed []float64 of n values for a caller whose
// values are not in one slice: it appends the prefix and makes room for
// the block; the caller then appends exactly n values, in runs, with
// AppendFloat64s. The bytes are those of PutFloat64s on the joined runs.
func (e *Encoder) PutFloat64sLen(n int) {
	e.PutUvarint(uint64(n))
	e.ensure(8 * n)
}

// AppendFloat64s appends a run of packed values with no prefix — part of a
// block opened with PutFloat64sLen.
func (e *Encoder) AppendFloat64s(run []float64) {
	e.ensure(8 * len(run))
	off := len(e.buf)
	e.buf = e.buf[:off+8*len(run)]
	PackFloat64s(e.buf[off:], run)
}

// PutComplex128s appends a length-prefixed packed []complex128, like
// PutFloat64s: each value is its real part, then its imaginary part.
func (e *Encoder) PutComplex128s(v []complex128) {
	e.PutComplex128sLen(len(v))
	e.AppendComplex128s(v)
}

// PutComplex128sLen and AppendComplex128s are PutFloat64sLen and
// AppendFloat64s for complex values: a block of n, then exactly n values in
// runs. The bytes are those of PutComplex128s on the joined runs.
func (e *Encoder) PutComplex128sLen(n int) {
	e.PutUvarint(uint64(n))
	e.ensure(16 * n)
}

// AppendComplex128s appends a run of a block opened with PutComplex128sLen.
func (e *Encoder) AppendComplex128s(run []complex128) {
	e.AppendFloat64s(complexFloats(run))
}

// PutInts appends a length-prefixed []int as signed varints.
func (e *Encoder) PutInts(v []int) {
	e.PutUvarint(uint64(len(v)))
	for _, x := range v {
		e.PutVarint(int64(x))
	}
}

// Decoder reads values from a byte buffer in the order they were encoded.
// Decoding errors are sticky: after the first error every subsequent read
// returns a zero value and Err reports the error.
type Decoder struct {
	buf []byte
	off int
	err error
	// pooled marks a decoder from GetFrameDecoder: it owns buf, and
	// Release returns both the frame and the decoder to their pools.
	pooled   bool
	released bool
}

// NewDecoder returns a decoder over b. The decoder does not copy b and
// does not own it: Release disables the decoder but recycles nothing.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Byte reads one raw byte written with PutByte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if !d.varintOK(n) {
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if !d.varintOK(n) {
		return 0
	}
	d.off += n
	return v
}

// varintOK checks n, the length binary.Uvarint or binary.Varint returned
// for the varint at d.off, and fails d unless it is a whole varint in its
// shortest form: a longer one ends in a zero byte, which no encoder
// writes and which would decode to a value that re-encodes shorter.
func (d *Decoder) varintOK(n int) bool {
	switch {
	case n == 0:
		d.fail(ErrTruncated)
	case n < 0 || n > 1 && d.buf[d.off+n-1] == 0:
		d.fail(ErrCorrupt)
	default:
		return true
	}
	return false
}

// Int reads an int encoded with PutInt.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return false
	}
	b := d.buf[d.off]
	d.off++
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(ErrCorrupt)
		return false
	}
}

// Float64 reads a float64.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(d.Remaining()) < n {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// StringBytes reads a value written by PutString as a raw byte view
// without allocating. Like BytesView the result aliases the frame: it is
// valid only until Release. Its main use is allocation-free map lookups —
// Go map indexing with a string([]byte) conversion does not allocate.
func (d *Decoder) StringBytes() []byte { return d.BytesView() }

// BytesView reads a length-prefixed byte slice without copying. The
// returned slice aliases the decoder's frame and is valid only until the
// frame is released (Decoder.Release) — after that the storage may be
// recycled into an unrelated message. Callers that retain the bytes must
// copy (or use BytesCopy).
func (d *Decoder) BytesView() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// Bytes reads a length-prefixed byte slice. The returned slice aliases the
// decoder's buffer; callers that retain it must copy. It is BytesView
// under the pre-pooling name.
func (d *Decoder) Bytes() []byte { return d.BytesView() }

// BytesCopy reads a length-prefixed byte slice into freshly allocated
// storage safe to retain.
func (d *Decoder) BytesCopy() []byte {
	b := d.BytesView()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// bulkLen reads the count n of a run of values of at least size bytes each
// and checks that the frame can hold them — for a packed block, that all
// of them are there — before any is consumed and before anything is sized
// by n. n is compared against the values that fit, not multiplied: size*n
// wraps for a hostile n.
func (d *Decoder) bulkLen(size int) (n int, ok bool) {
	v := d.Uvarint()
	if d.err != nil {
		return 0, false
	}
	if v > uint64(d.Remaining()/size) {
		d.fail(ErrTruncated)
		return 0, false
	}
	return int(v), true
}

// Float64s reads a length-prefixed packed []float64 into a freshly
// allocated, caller-owned slice filled in a single pass.
func (d *Decoder) Float64s() []float64 {
	n, ok := d.bulkLen(8)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	d.CopyFloat64s(out)
	return out
}

// Float64sInto reads a packed []float64 into dst, which must have exactly
// the encoded length. It avoids allocating for hot bulk-transfer paths.
func (d *Decoder) Float64sInto(dst []float64) {
	n, ok := d.bulkLen(8)
	if !ok {
		return
	}
	if n != len(dst) {
		d.fail(fmt.Errorf("%w: Float64sInto length %d, want %d", ErrCorrupt, n, len(dst)))
		return
	}
	d.CopyFloat64s(dst)
}

// Float64sLen reads the prefix of a packed []float64 and returns its count
// n, having checked that all 8n bytes are present (0 and a sticky error
// otherwise). The values follow; the caller takes exactly n of them, in
// runs, with CopyFloat64s — none of which can then fail.
// This is how a reader validates a block before it commits to storing it,
// and scatters one without a copy in between.
func (d *Decoder) Float64sLen() int {
	n, _ := d.bulkLen(8)
	return n
}

// CopyFloat64s fills dst with the next len(dst) packed values — a run of a
// block opened with Float64sLen, no prefix.
func (d *Decoder) CopyFloat64s(dst []float64) {
	if d.err != nil {
		return
	}
	if len(dst) > d.Remaining()/8 {
		d.fail(ErrTruncated)
		return
	}
	UnpackFloat64s(dst, d.buf[d.off:])
	d.off += 8 * len(dst)
}

// Float64sView reads a packed []float64 without copying it: the prefix,
// checked as by Float64sLen, then the block's 8n packed bytes, returned as
// a view of the frame (nil and a sticky error when any is missing). Like
// BytesView's, the view is valid only until Release. A reader takes values
// out of it with UnpackFloat64s, in runs, in any order.
func (d *Decoder) Float64sView() []byte {
	n, ok := d.bulkLen(8)
	if !ok {
		return nil
	}
	b := d.buf[d.off : d.off+8*n : d.off+8*n]
	d.off += 8 * n
	return b
}

// Complex128sInto reads a packed []complex128 into dst, which must have
// exactly the encoded length (the complex bulk fast lane).
func (d *Decoder) Complex128sInto(dst []complex128) {
	n, ok := d.bulkLen(16)
	if !ok {
		return
	}
	if n != len(dst) {
		d.fail(fmt.Errorf("%w: Complex128sInto length %d, want %d", ErrCorrupt, n, len(dst)))
		return
	}
	d.CopyComplex128s(dst)
}

// Complex128sLen and CopyComplex128s are Float64sLen and CopyFloat64s for
// complex values: the count n of a packed []complex128, all 16n bytes
// checked present (0 and a sticky error otherwise), then exactly n values
// taken in runs that cannot fail.
func (d *Decoder) Complex128sLen() int {
	n, _ := d.bulkLen(16)
	return n
}

// CopyComplex128s fills dst with the next len(dst) packed values — a run of
// a block opened with Complex128sLen.
func (d *Decoder) CopyComplex128s(dst []complex128) {
	d.CopyFloat64s(complexFloats(dst))
}

// Ints reads a length-prefixed []int.
func (d *Decoder) Ints() []int {
	// Each int takes at least one byte; reject impossible lengths early so
	// corrupt input cannot trigger huge allocations.
	n, ok := d.bulkLen(1)
	if !ok {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Varint())
	}
	if d.err != nil {
		return nil
	}
	return out
}
