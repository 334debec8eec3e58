package main

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"sync"
	"unsafe"
)

// The bare references: what the box charges for the same work with none of
// the runtime in the way — sockets, channels, copies and plain loops from
// the standard library only, laid out on goroutines the way the runtime's
// operation is, so that whatever slows the box slows both alike.

// loopback returns the two ends of a TCP connection over 127.0.0.1.
func loopback() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		return nil, nil, a.err
	}
	return client, a.c, nil
}

// bareRelay is the skeleton of a remote call: per machine one socket, a
// reader goroutine that hands the request to a worker goroutine that
// writes the reply, and on the caller's side a reader goroutine that hands
// the reply to the caller — four hand-offs and two socket crossings.
type bareRelay struct {
	conns   [machines]net.Conn
	servers [machines]net.Conn
	replies [machines]chan struct{}
	wg      sync.WaitGroup
	msg     []byte
}

func newBareRelay(size int) (*bareRelay, error) {
	r := &bareRelay{msg: make([]byte, size)}
	for m := range r.conns {
		c, s, err := loopback()
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns[m], r.servers[m] = c, s
		// Both channels hold a whole fan, so that a reader never waits for
		// the goroutine it hands to.
		r.replies[m] = make(chan struct{}, collectionMembers)
		work := make(chan []byte, collectionMembers)
		r.wg.Add(3)
		go func() { // the server's connection reader
			defer r.wg.Done()
			defer close(work)
			for {
				b := make([]byte, size)
				if _, err := io.ReadFull(s, b); err != nil {
					return
				}
				work <- b
			}
		}()
		go func() { // the object's goroutine
			defer r.wg.Done()
			for b := range work {
				// A failed write is a closed connection, which the readers
				// report; the channel is drained all the same.
				_, _ = s.Write(b)
			}
		}()
		replies := r.replies[m]
		go func() { // the caller's connection reader
			defer r.wg.Done()
			defer close(replies)
			b := make([]byte, size)
			for {
				if _, err := io.ReadFull(c, b); err != nil {
					return
				}
				replies <- struct{}{}
			}
		}()
	}
	return r, nil
}

var errRelayClosed = fmt.Errorf("bare relay: connection closed")

// trip is one request and its reply on machine m's connection.
func (r *bareRelay) trip(m int) error {
	if _, err := r.conns[m].Write(r.msg); err != nil {
		return err
	}
	if _, ok := <-r.replies[m]; !ok {
		return errRelayClosed
	}
	return nil
}

// fan sends n requests, dealt over the machines, before it takes the n
// replies: the skeleton of a broadcast.
func (r *bareRelay) fan(n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.conns[i%machines].Write(r.msg); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := <-r.replies[i%machines]; !ok {
			return errRelayClosed
		}
	}
	return nil
}

func (r *bareRelay) close() {
	for m := range r.conns {
		if r.conns[m] != nil {
			r.conns[m].Close()
			r.servers[m].Close()
		}
	}
	r.wg.Wait()
}

// bareStream is the skeleton of a whole-array Write and Read: an n³ array
// in page³ pages dealt round-robin over one socket per machine. A write
// gathers each page out of the row-major buffer and sends its bytes; the
// far side reads them into its memory and acknowledges the lot. A read has
// the far sides send their pages and a reader per socket scatter them.
type bareStream struct {
	n, page int
	conns   [machines]net.Conn
	servers [machines]net.Conn
	wg      sync.WaitGroup
}

func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

func newBareStream(n, page int) (*bareStream, error) {
	b := &bareStream{n: n, page: page}
	g := n / page
	pages := g * g * g
	pe := page * page * page
	for m := range b.conns {
		c, s, err := loopback()
		if err != nil {
			b.close()
			return nil, err
		}
		b.conns[m], b.servers[m] = c, s
		mine := (pages - m + machines - 1) / machines
		store := make([]float64, mine*pe) // the far side's memory
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			var op [1]byte
			for {
				if _, err := io.ReadFull(s, op[:]); err != nil {
					return
				}
				switch op[0] {
				case 'W':
					for i := 0; i < mine; i++ {
						if _, err := io.ReadFull(s, f64Bytes(store[i*pe:(i+1)*pe])); err != nil {
							return
						}
					}
					if _, err := s.Write(op[:]); err != nil {
						return
					}
				case 'R':
					for i := 0; i < mine; i++ {
						if _, err := s.Write(f64Bytes(store[i*pe : (i+1)*pe])); err != nil {
							return
						}
					}
				}
			}
		}()
	}
	return b, nil
}

// eachRow calls f with the offset in the row-major array and the offset in
// the page of every row of page number p.
func (b *bareStream) eachRow(p int, f func(arrayOff, pageOff int)) {
	g, ps, n := b.n/b.page, b.page, b.n
	pi, pj, pk := p/(g*g), p/g%g, p%g
	for i := 0; i < ps; i++ {
		for j := 0; j < ps; j++ {
			f(((pi*ps+i)*n+pj*ps+j)*n+pk*ps, (i*ps+j)*ps)
		}
	}
}

func (b *bareStream) write(data []float64) error {
	g, ps := b.n/b.page, b.page
	buf := make([]float64, ps*ps*ps)
	for m := range b.conns {
		if _, err := b.conns[m].Write([]byte{'W'}); err != nil {
			return err
		}
	}
	for p := 0; p < g*g*g; p++ {
		b.eachRow(p, func(a, q int) { copy(buf[q:q+ps], data[a:a+ps]) })
		if _, err := b.conns[p%machines].Write(f64Bytes(buf)); err != nil {
			return err
		}
	}
	var ack [1]byte
	for m := range b.conns {
		if _, err := io.ReadFull(b.conns[m], ack[:]); err != nil {
			return err
		}
	}
	return nil
}

func (b *bareStream) read(out []float64) error {
	g, ps := b.n/b.page, b.page
	errs := make(chan error, machines)
	for m := range b.conns {
		if _, err := b.conns[m].Write([]byte{'R'}); err != nil {
			return err
		}
		go func() {
			buf := make([]float64, ps*ps*ps)
			for p := m; p < g*g*g; p += machines {
				if _, err := io.ReadFull(b.conns[m], f64Bytes(buf)); err != nil {
					errs <- err
					return
				}
				b.eachRow(p, func(a, q int) { copy(out[a:a+ps], buf[q:q+ps]) })
			}
			errs <- nil
		}()
	}
	var first error
	for range b.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (b *bareStream) close() {
	for m := range b.conns {
		if b.conns[m] != nil {
			b.conns[m].Close()
			b.servers[m].Close()
		}
	}
	b.wg.Wait()
}

// bareSweep is the arithmetic of one owner_compute iteration as plain
// loops over flat slices: scale, axpy, sum, dot, then the fused chain,
// which leaves x as it found it. With threads > 1 the slices are split
// into that many runs, each swept by a goroutine of its own.
func bareSweep(x, y []float64, threads int) sweepSums {
	parts := make([]sweepSums, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo, hi := t*len(x)/threads, (t+1)*len(x)/threads
		wg.Add(1)
		go func(p *sweepSums, x, y []float64) {
			defer wg.Done()
			y = y[:len(x)]
			for i := range x {
				x[i] *= 2
			}
			for i := range x {
				x[i] += 2 * y[i]
			}
			for _, v := range x {
				p.sum += v
			}
			for i, v := range x {
				p.dot += v * y[i]
			}
			for i := range x {
				x[i] = 0.5*x[i] - y[i]
				p.chain += x[i]
			}
		}(&parts[t], x[lo:hi], y[lo:hi])
	}
	wg.Wait()
	var total sweepSums
	for _, p := range parts {
		total.sum, total.dot, total.chain = total.sum+p.sum, total.dot+p.dot, total.chain+p.chain
	}
	return total
}

// bareFFT is a plain radix-2 3D FFT of an n³ array, n a power of two, on
// the calling goroutine: every axis in turn, a strided line gathered into a
// contiguous buffer, transformed and scattered back.
type bareFFT struct {
	n   int
	rev []int
	tw  []complex128
}

func newBareFFT(n int) *bareFFT {
	f := &bareFFT{n: n, rev: make([]int, n), tw: make([]complex128, n/2)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range f.rev {
		f.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for k := range f.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		f.tw[k] = complex(c, s)
	}
	return f
}

// line transforms one contiguous line of n values in place.
func (f *bareFFT) line(x []complex128, inverse bool) {
	n := f.n
	for i, j := range f.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size>>1, n/size
		for start := 0; start < n; start += size {
			for k, t := start, 0; k < start+half; k, t = k+1, t+step {
				w := f.tw[t]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				u, v := x[k], x[k+half]*w
				x[k], x[k+half] = u+v, u-v
			}
		}
	}
	if inverse {
		s := 1 / float64(n)
		for i := range x {
			x[i] = complex(real(x[i])*s, imag(x[i])*s)
		}
	}
}

func (f *bareFFT) transform(x []complex128, inverse bool) {
	n := f.n
	for r := 0; r < n*n; r++ { // axis 3: contiguous
		f.line(x[r*n:(r+1)*n], inverse)
	}
	col := make([]complex128, n)
	for _, stride := range []int{n, n * n} { // axis 2, then axis 1
		for r := 0; r < n*n; r++ {
			// r numbers the lines of this axis by their two other indices.
			base := r
			if stride == n {
				base = r/n*n*n + r%n
			}
			for i := range col {
				col[i] = x[base+i*stride]
			}
			f.line(col, inverse)
			for i := range col {
				x[base+i*stride] = col[i]
			}
		}
	}
}
