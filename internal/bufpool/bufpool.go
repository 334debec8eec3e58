// Package bufpool is the process-wide recycling pool for message buffers.
// It is the allocation backbone of the zero-allocation RMI hot path: wire
// encoders grow through it, transports acquire and release frames from it,
// and the RMI runtime returns response frames to it once decoding is done.
//
// Buffers are recycled in capacity classes, one per power of two, in two
// tiers:
//
//	class  0 .. 10    64 B .. 64 KiB    per processor, kept until two GCs pass
//	class 11        128 KiB            retains 64 ( 8 MiB)
//	class 12        256 KiB            retains 64 (16 MiB)
//	class 13        512 KiB            retains 32 (16 MiB)
//	class 14          1 MiB            retains 16 (16 MiB)
//	class 15          2 MiB            retains  8 (16 MiB)
//	class 16          4 MiB            retains  4 (16 MiB)
//
// Get returns a buffer drawn from the smallest class that fits, so a
// buffer is less than twice the request it serves; Put files a buffer under
// the largest class its capacity can serve. Both find the class with one
// bit scan. Because classes are shared process-wide, a page frame released
// by a client decode is the very buffer the next server reply grows into —
// steady-state bulk traffic recycles buffers instead of allocating, and
// zeroing, one per message.
//
// The small tier is every frame of a call or a collective's member: each
// takes and returns a buffer, on whichever processor it runs. Its classes
// are sync.Pools, which keep a free list per processor, so a Get and a Put
// on two processors touch no common lock. A pool holds the buffer as an
// unsafe.Pointer to its array, not as a slice: a pointer goes into an
// interface without being boxed, which a slice header would be — one
// hidden allocation per recycle is exactly what this package exists to
// remove — so Get and Put stay allocation-free. A Get rebuilds the slice at
// its class's size. A pool keeps whatever it is given until the garbage
// collector has passed twice, so this tier takes back only buffers of
// exactly a class's size, the ones it hands out: a buffer made elsewhere
// that nobody takes again (a message-passing sender's frame, say) is
// dropped rather than kept to grow the pool between collections. What the
// tier retains is its own circulation, and a buffer idle through two
// collections is dropped.
//
// The large tier is page frames and transfer pieces. Each class is a
// bounded free list built on a buffered channel, whose send and receive
// copy the header without boxing, and retention is bounded per class in
// bytes (classBytes) and in buffers (classBuffers), whichever is fewer. The
// byte bound is what a page read needs: a 32^3 float64 page is 256 KiB of
// payload plus a few dozen bytes of reply header, so the frame a client
// receives it in lives in the 512 KiB class, and a split loop keeps
// rmi.DefaultWindow = 32 of them in flight at once — taken together,
// returned together. 32 x 512 KiB is the 16 MiB a class may keep; a class
// that kept fewer would allocate and zero a fresh span for the rest of
// every window. A page's sender takes no such buffer: a page write's
// values are sent from the caller's staging buffer, and a page read's
// reply from the page the device holds (wire.Encoder.BorrowFloat64s), so
// only the frames that receive them — a device's write frame, a client's
// reply frame — come from this class. The large tier therefore
// holds at most 88 MiB while idle, reached only by a process that has had
// that much in flight in every class at once. Overflow is dropped to the
// garbage collector.
//
// Requests larger than the top class fall through to plain make and are
// dropped on Put: pathological messages must not pin pathological memory.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

const (
	minShift   = 6  // the smallest class holds 64 B buffers
	smallShift = 16 // the largest class of the small tier 64 KiB
	maxShift   = 22 // the largest 4 MiB

	// MaxPooled is the largest capacity the pool recycles. Larger buffers
	// are allocated directly and garbage collected.
	MaxPooled = 1 << maxShift

	// PieceBytes bounds the values of one message that carries part of a
	// larger transfer: a pfft transpose block, a device's remote operands.
	// A quarter of MaxPooled: payload and call header together round up to
	// the class of MaxPooled/2, which keeps eight idle buffers — a piece
	// going out to and one coming in from each of a few peers at once — so
	// no such frame is a fresh zeroed allocation.
	PieceBytes = MaxPooled / 4

	// classBuffers and classBytes bound what one class of the large tier
	// retains while idle: that many buffers, and no more than that many
	// bytes of them.
	classBuffers = 64
	classBytes   = 16 << 20
)

var (
	// small holds the per-processor classes, 0 .. len(small)-1.
	small [smallShift - minShift + 1]sync.Pool
	// classes holds the bounded free lists of the large tier, indexed by
	// class like small; the entries below len(small) stay nil.
	classes [maxShift - minShift + 1]chan []byte
)

func init() {
	for i := len(small); i < len(classes); i++ {
		classes[i] = make(chan []byte, retained(i))
	}
}

// classSize is the capacity of the buffers class ci hands out.
func classSize(ci int) int { return 1 << (ci + minShift) }

// retained is how many idle buffers class ci of the large tier keeps.
func retained(ci int) int { return min(classBuffers, classBytes/classSize(ci)) }

// classFor returns the index of the smallest class with size >= n, or -1
// if n exceeds the largest class.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	if n <= 1<<minShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minShift
}

// Get returns a zero-length buffer with capacity at least n, recycled if
// possible. The caller owns the buffer until it hands it to Put (or to an
// API documented to take ownership, such as transport.Conn.Send).
func Get(n int) []byte {
	ci := classFor(n)
	switch {
	case ci < 0:
		return make([]byte, 0, n)
	case ci < len(small):
		if p, ok := small[ci].Get().(unsafe.Pointer); ok {
			return unsafe.Slice((*byte)(p), classSize(ci))[:0]
		}
	default:
		select {
		case b := <-classes[ci]:
			return b
		default:
		}
	}
	return make([]byte, 0, classSize(ci))
}

// GetLen is Get with the buffer pre-sized to length n. The contents are
// unspecified (recycled buffers are not zeroed); callers must overwrite
// the full length before reading it.
func GetLen(n int) []byte {
	return Get(n)[:n]
}

// Put recycles b. Passing a buffer that is still referenced elsewhere is a
// use-after-free waiting to happen: callers must guarantee exclusive
// ownership. Put files b under the largest class its capacity can serve,
// so grown buffers return to the class matching their real size. Nil,
// undersized, and oversized buffers are dropped, as is anything beyond a
// class's retention bound, and, in the small tier, any buffer whose
// capacity is not exactly its class's size.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minShift || c > 2*MaxPooled {
		return
	}
	ci := min(bits.Len(uint(c))-1-minShift, len(classes)-1)
	if ci < len(small) {
		if c == classSize(ci) {
			small[ci].Put(unsafe.Pointer(unsafe.SliceData(b)))
		}
		return
	}
	select {
	case classes[ci] <- b[:0]:
	default:
	}
}
