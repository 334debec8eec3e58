package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"oopp/internal/bufpool"
	"oopp/internal/disk"
	"oopp/internal/kernel"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// The layers below the workloads — wire, bufpool, transport, kernel, disk —
// are timed on their own, from outside, by calling their public functions
// in a loop. The calib numbers are in-run yardsticks of the box, so that
// the ratios the other layers are divided by come from the same run.

const pageBytes = 32 * 32 * 32 * 8 // one 32³ float64 page: 256 KiB

// nsPerOp times batches of ops and returns the per-op nanoseconds of each
// batch, one batch per segment.
func nsPerOp(batch int, op func()) []float64 {
	for i := 0; i < batch/4; i++ {
		op()
	}
	out := make([]float64, minSegments)
	for s := range out {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		out[s] = float64(time.Since(t0)) / float64(batch)
	}
	return out
}

// allocsPerOp is the heap allocations one op makes, averaged over n.
func allocsPerOp(n int, op func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// runLayers measures the layers beneath the workloads; sz only shortens
// the loops for the smoke test.
func runLayers(sz size, seed uint64) (*report, error) {
	r := newReport(false)
	scale := 1
	if sz == smoke {
		scale = 20
	}
	payload := genPayload(rngFor(seed, "layers/payload"), callPayload)
	page := genReals(rngFor(seed, "layers/page"), pageBytes/8)

	// calib: memory copy at page and at array size, and a bare socket.
	src, dst := make([]byte, pageBytes), make([]byte, pageBytes)
	pageCopy := nsPerOp(2000/scale, func() { copy(dst, src) })
	r.setLayer("calib.memcpy_page_GBps", "GB/s", rates(pageCopy, pageBytes), 2000/scale)
	big := 128 << 20 / scale
	bsrc, bdst := make([]byte, big), make([]byte, big)
	copy(bdst, bsrc) // first touch
	bigCopy := nsPerOp(2, func() { copy(bdst, bsrc) })
	r.setLayer("calib.memcpy_GBps", "GB/s", rates(bigCopy, float64(big)), 2)
	bsrc, bdst = nil, nil
	rtt, err := bareSocketRTT(4000 / scale)
	if err != nil {
		return nil, err
	}
	r.setLayer("calib.tcp_rtt_us", "us", scaleAll(rtt, 1e-3), 4000/scale)

	// wire: one 64 B call frame as rmi lays it out, encoded and decoded.
	frame := func() {
		e := wire.GetEncoder(64)
		e.PutByte(1)
		e.PutUvarint(123456)
		e.PutUvarint(2)
		e.PutUvarint(7)
		e.PutString("echo")
		e.PutVarint(0)
		e.PutBytes(payload)
		d := wire.GetFrameDecoder(e.Detach())
		wire.PutEncoder(e)
		d.Byte()
		d.Uvarint()
		d.Uvarint()
		d.Uvarint()
		d.StringBytes()
		d.Varint()
		d.BytesView()
		d.Release()
	}
	r.setLayer("wire.call_frame_ns", "ns", nsPerOp(200000/scale, frame), 200000/scale)
	r.setLayer1("wire.call_frame_allocs", "count", allocsPerOp(20000/scale, frame))
	var packed []byte
	pack := nsPerOp(400/scale, func() {
		e := wire.GetEncoder(pageBytes + 16)
		e.PutFloat64s(page)
		bufpool.Put(packed)
		packed = e.Detach()
		wire.PutEncoder(e)
	})
	r.setLayer("wire.f64s_pack_GBps", "GB/s", rates(pack, pageBytes), 400/scale)
	into := make([]float64, len(page))
	unpack := nsPerOp(400/scale, func() {
		d := wire.NewDecoder(packed)
		d.Float64sInto(into)
	})
	r.setLayer("wire.f64s_unpack_GBps", "GB/s", rates(unpack, pageBytes), 400/scale)

	// bufpool: a get and a put, small class and page class.
	r.setLayer("bufpool.getput_ns", "ns", nsPerOp(400000/scale, func() { bufpool.Put(bufpool.Get(callPayload)) }), 400000/scale)
	r.setLayer("bufpool.getput_256k_ns", "ns", nsPerOp(400000/scale, func() { bufpool.Put(bufpool.Get(pageBytes)) }), 400000/scale)

	// transport: framed round trips over loopback and in process.
	tcp, tcpAllocs, err := transportRTT(transport.TCP{}, callPayload, 4000/scale)
	if err != nil {
		return nil, err
	}
	r.setLayer("transport.tcp_rtt_us", "us", scaleAll(tcp, 1e-3), 4000/scale)
	r.setLayer1("transport.tcp_rtt_allocs", "count", tcpAllocs)
	inproc, _, err := transportRTT(transport.NewInproc(transport.LinkModel{}), callPayload, 4000/scale)
	if err != nil {
		return nil, err
	}
	r.setLayer("transport.inproc_rtt_us", "us", scaleAll(inproc, 1e-3), 4000/scale)
	pages, _, err := transportRTT(transport.TCP{}, pageBytes, 400/scale)
	if err != nil {
		return nil, err
	}
	// A page each way per round trip.
	r.setLayer("transport.tcp_256k_MBps", "MB/s", rates(scaleAll(pages, 1e-9), 2*pageBytes/1e6), 400/scale)

	// kernel: the registered builtins on a flat slice, one thread.
	const kelems = 1 << 21 // 16 MiB: streamed from memory, as a device sweep is
	row := genReals(rngFor(seed, "layers/kernel"), kelems)
	other := make([]float64, kelems)
	scaleK, err := kernel.LookupMap(kernel.Scale, []float64{1})
	if err != nil {
		return nil, err
	}
	axpyK, err := kernel.LookupBinary(kernel.Axpy, []float64{0})
	if err != nil {
		return nil, err
	}
	sumK, err := kernel.LookupReduce(kernel.Sum, nil)
	if err != nil {
		return nil, err
	}
	acc := sumK.NewAcc(nil)
	one, zero := []float64{1}, []float64{0}
	perMelem := func(ns []float64) []float64 { return rates(scaleAll(ns, 1e-9), kelems/1e6) }
	r.setLayer("kernel.direct_scale_Melem_per_s", "Melem/s", perMelem(nsPerOp(8/min(scale, 4), func() { scaleK.Fn(row, one) })), 8)
	r.setLayer("kernel.direct_axpy_Melem_per_s", "Melem/s", perMelem(nsPerOp(8/min(scale, 4), func() { axpyK.Fn(row, other, zero) })), 8)
	r.setLayer("kernel.direct_sum_Melem_per_s", "Melem/s", perMelem(nsPerOp(8/min(scale, 4), func() { sumK.Row(acc, row, nil) })), 8)

	// disk: page-sized transfers on the memory-backed disk devices use.
	dk := disk.NewMem("bench", 64<<20, disk.Model{})
	defer dk.Close()
	buf := make([]byte, pageBytes)
	slots := int64(64 << 20 / pageBytes)
	var i int64
	var derr error
	wr := nsPerOp(2000/scale, func() {
		if err := dk.WriteAt(buf, (i%slots)*pageBytes); err != nil {
			derr = err
		}
		i++
	})
	rd := nsPerOp(2000/scale, func() {
		if err := dk.ReadAt(buf, (i%slots)*pageBytes); err != nil {
			derr = err
		}
		i++
	})
	if derr != nil {
		return nil, derr
	}
	r.setLayer("disk.write_MBps", "MB/s", rates(scaleAll(wr, 1e-9), pageBytes/1e6), 2000/scale)
	r.setLayer("disk.read_MBps", "MB/s", rates(scaleAll(rd, 1e-9), pageBytes/1e6), 2000/scale)
	return r, nil
}

// bareSocketRTT ping-pongs 64 B over a bare loopback net.Conn: what the
// box charges for a round trip before any of this repository's code runs.
func bareSocketRTT(n int) ([]float64, error) {
	c, s, err := loopback()
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() {
		defer s.Close()
		b := make([]byte, callPayload)
		for {
			if _, err := io.ReadFull(s, b); err != nil {
				done <- nil // the dialer closed: the loop is over
				return
			}
			if _, err := s.Write(b); err != nil {
				done <- err
				return
			}
		}
	}()
	b := make([]byte, callPayload)
	var ioErr error
	ns := nsPerOp(n, func() {
		if _, err := c.Write(b); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(c, b); err != nil {
			ioErr = err
		}
	})
	c.Close()
	if err := <-done; err != nil {
		return nil, err
	}
	return ns, ioErr
}

// transportRTT echoes frames of the given size over tr's Conn and returns
// the per-round-trip nanoseconds and the allocations a round trip makes.
func transportRTT(tr transport.Transport, bytes, n int) ([]float64, float64, error) {
	ln, err := tr.Listen("")
	if err != nil {
		return nil, 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				done <- nil // the dialer closed: the loop is over
				return
			}
			if err := c.Send(msg); err != nil { // Send takes the frame
				done <- err
				return
			}
		}
	}()
	c, err := tr.Dial(ln.Addr())
	if err != nil {
		return nil, 0, err
	}
	var ioErr error
	trip := func() {
		if err := c.Send(transport.GetFrame(bytes)); err != nil {
			ioErr = err
			return
		}
		msg, err := c.Recv()
		if err != nil {
			ioErr = err
			return
		}
		transport.ReleaseFrame(msg)
	}
	ns := nsPerOp(n, trip)
	allocs := allocsPerOp(n, trip)
	c.Close()
	if err := <-done; err != nil {
		return nil, 0, err
	}
	if ioErr != nil {
		return nil, 0, fmt.Errorf("%s round trip: %w", tr.Name(), ioErr)
	}
	return ns, allocs, nil
}
