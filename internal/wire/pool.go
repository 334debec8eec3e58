package wire

import (
	"sync"

	"oopp/internal/bufpool"
)

// This file is the pooling lifecycle for encoders and decoders — the
// codec half of the zero-allocation hot path. Struct shells recycle
// through sync.Pools (pointers, so no interface boxing); their byte
// buffers recycle through internal/bufpool capacity classes, shared with
// the transports. See the package comment for the ownership rules.

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetEncoder returns a pooled encoder backed by a pooled buffer of at
// least the given capacity. Pair with PutEncoder; extract the finished
// frame with Detach before returning the encoder.
func GetEncoder(capacity int) *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.buf = bufpool.Get(capacity)
	e.aliased = false
	e.released = false
	return e
}

// PutEncoder recycles an encoder obtained from GetEncoder. Any frame not
// removed with Detach is recycled with it (unless Bytes leaked a view, in
// which case the buffer is left to the garbage collector); a borrowed tail
// is let go, never pooled, and its giveBack run. The encoder is poisoned:
// any further Put panics. PutEncoder is idempotent.
func PutEncoder(e *Encoder) {
	if e == nil || e.released {
		return
	}
	e.released = true
	if !e.aliased {
		bufpool.Put(e.buf)
	}
	e.buf = nil
	e.letGo()
	e.aliased = false
	encoderPool.Put(e)
}

// GetFrameDecoder returns a pooled decoder over frame and takes ownership
// of it: Decoder.Release returns the frame to the shared buffer pool and
// the decoder to its own. Use for frames whose storage should recycle
// (responses from Conn.Recv); use NewDecoder for borrowed bytes.
func GetFrameDecoder(frame []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.buf = frame
	d.off = 0
	d.err = nil
	d.pooled = true
	d.released = false
	return d
}

// Release retires the decoder. For decoders from GetFrameDecoder the
// underlying frame returns to the shared buffer pool — which invalidates
// every view previously returned by BytesView/Bytes/StringBytes — and the
// decoder struct is recycled. For NewDecoder decoders it only disables
// further reads. After Release all reads return zero values and Err
// reports ErrReleased. Release is idempotent and safe on a nil decoder.
func (d *Decoder) Release() {
	if d == nil || d.released {
		return
	}
	d.released = true
	pooled := d.pooled
	if pooled {
		bufpool.Put(d.buf)
	}
	d.buf = nil
	d.off = 0
	d.err = ErrReleased
	d.pooled = false
	if pooled {
		decoderPool.Put(d)
	}
}
