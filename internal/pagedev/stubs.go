package pagedev

import (
	"context"
	"fmt"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Device is the client stub — the remote pointer a user program holds to
// a PageDevice process on another machine. Every method is one remote
// instruction with the paper's §2 sequential semantics; the *Async
// variants are the §4 compiler-split form.
type Device struct {
	client *rmi.Client
	ref    rmi.Ref
}

// NewDevice creates a PageDevice process on machine m — the paper's
//
//	PageDevice * PageStore = new(machine m)
//	    PageDevice("pagefile", NumberOfPages, PageSize);
//
// diskIndex selects which of the machine's disks backs the device;
// DiskPrivate gives it a private in-memory disk.
func NewDevice(ctx context.Context, client *rmi.Client, m int, name string, numPages, pageSize, diskIndex int) (*Device, error) {
	ref, err := PageDeviceClass.New(ctx, client, m, deviceArgs{name, numPages, pageSize, diskIndex})
	if err != nil {
		return nil, err
	}
	return &Device{client: client, ref: ref}, nil
}

// AttachDevice wraps an existing remote pointer (e.g. one resolved from a
// persistent symbolic address) in a client stub.
func AttachDevice(client *rmi.Client, ref rmi.Ref) *Device {
	return &Device{client: client, ref: ref}
}

// Ref returns the remote pointer.
func (d *Device) Ref() rmi.Ref { return d.ref }

// Client returns the RMI client the stub issues its calls through.
func (d *Device) Client() *rmi.Client { return d.client }

// Each method's arguments are spelled once: the synchronous stub (on
// Client.Call, whose pooled waiter allocates no Future) and its *Async
// twin share one argument encoder and one reply decoder.

// indexArgs encodes the lone page index read and readArray take.
func indexArgs(index int) rmi.ArgEncoder {
	return func(e *wire.Encoder) error {
		e.PutInt(index)
		return nil
	}
}

// voidReply settles a call whose reply carries nothing.
func voidReply(dec *wire.Decoder, err error) error {
	dec.Release()
	return err
}

// pageReply decodes read's reply: the page bytes, copied out of the
// response frame.
func pageReply(dec *wire.Decoder, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer dec.Release()
	data := dec.BytesCopy()
	return data, dec.Err()
}

// Write stores page data at the given page index.
func (d *Device) Write(ctx context.Context, index int, data []byte) error {
	return voidReply(devWrite.Call(ctx, d.client, d.ref, func(e *wire.Encoder) error {
		e.PutInt(index)
		e.PutBytes(data)
		return nil
	}))
}

// Read fetches the page at the given index.
func (d *Device) Read(ctx context.Context, index int) ([]byte, error) {
	return pageReply(devRead.Call(ctx, d.client, d.ref, indexArgs(index)))
}

// ReadAsync begins a page read; its reply holds the page bytes.
func (d *Device) ReadAsync(ctx context.Context, index int) *rmi.Future {
	return devRead.CallAsync(ctx, d.client, d.ref, indexArgs(index))
}

// NumPages returns the device capacity in pages.
func (d *Device) NumPages(ctx context.Context) (int, error) {
	return devNumPages.Call(ctx, d.client, d.ref, struct{}{})
}

// Name returns the device label.
func (d *Device) Name(ctx context.Context) (string, error) {
	return devName.Call(ctx, d.client, d.ref, struct{}{})
}

// Stats returns the device's served (reads, writes).
func (d *Device) Stats(ctx context.Context) (reads, writes int64, err error) {
	s, err := devStats.Call(ctx, d.client, d.ref, struct{}{})
	return s.reads, s.writes, err
}

// CheckpointToAsync begins a device checkpoint: the device serializes
// its full representation inside its serial mailbox and ships it to the
// persist store ref (usually on another machine) under name — the
// checkpoint half of cold recovery. The device stays live; the blob
// activates later like any passivated process.
func (d *Device) CheckpointToAsync(ctx context.Context, store rmi.Ref, name string) *rmi.Future {
	return devCheckpointTo.CallAsync(ctx, d.client, d.ref, checkpointArgs{store, name, d.ref.Class}).Future
}

// Close destroys the remote process — "delete PageStore".
func (d *Device) Close(ctx context.Context) error { return d.client.Delete(ctx, d.ref) }

// ArrayDevice is the client stub for the derived ArrayPageDevice process.
// It embeds Device: the stub inheritance mirrors the process inheritance.
type ArrayDevice struct {
	Device
	n1, n2, n3 int
}

// NewArrayDevice creates an ArrayPageDevice process on machine m — the
// paper's
//
//	ArrayPageDevice * blocks = new(machine m)
//	    ArrayPageDevice("array_blocks", NumberOfPages, n1, n2, n3);
func NewArrayDevice(ctx context.Context, client *rmi.Client, m int, name string, numPages, n1, n2, n3, diskIndex int) (*ArrayDevice, error) {
	ref, err := ArrayPageDeviceClass.New(ctx, client, m, ArrayDeviceArgs{Name: name, NumPages: numPages, Dims: [3]int{n1, n2, n3}, DiskIndex: diskIndex})
	if err != nil {
		return nil, err
	}
	return AttachArrayDevice(client, ref, n1, n2, n3), nil
}

// NewArrayDeviceFromProcess creates an ArrayPageDevice on machine m that
// delegates its storage to an existing PageDevice process — the §5
//
//	ArrayPageDevice * new_device = new ArrayPageDevice(page_device);
//
// The new process co-exists and communicates with the old one.
func NewArrayDeviceFromProcess(ctx context.Context, client *rmi.Client, m int, src rmi.Ref, numPages, n1, n2, n3 int) (*ArrayDevice, error) {
	ref, err := ArrayPageDeviceClass.New(ctx, client, m, ArrayDeviceArgs{FromProcess: true, Src: src, NumPages: numPages, Dims: [3]int{n1, n2, n3}})
	if err != nil {
		return nil, err
	}
	return AttachArrayDevice(client, ref, n1, n2, n3), nil
}

// AttachArrayDevice wraps an existing remote pointer in an array stub.
func AttachArrayDevice(client *rmi.Client, ref rmi.Ref, n1, n2, n3 int) *ArrayDevice {
	return &ArrayDevice{Device: Device{client: client, ref: ref}, n1: n1, n2: n2, n3: n3}
}

// Dims returns the locally known block dimensions.
func (d *ArrayDevice) Dims() (n1, n2, n3 int) { return d.n1, d.n2, d.n3 }

// DecodeResidual extracts the plane residual from a completed
// JacobiPlaneAsync future.
func DecodeResidual(ctx context.Context, fut *rmi.Future) (float64, error) {
	dec, err := fut.Wait(ctx)
	if err != nil {
		return 0, err
	}
	defer dec.Release()
	v := dec.Float64()
	return v, dec.Err()
}

// checkDims refuses a page whose dimensions are not the device's.
func (d *ArrayDevice) checkDims(p *ArrayPage) error {
	if p.N1 != d.n1 || p.N2 != d.n2 || p.N3 != d.n3 {
		return fmt.Errorf("pagedev: page dims %dx%dx%d, device dims %dx%dx%d",
			p.N1, p.N2, p.N3, d.n1, d.n2, d.n3)
	}
	return nil
}

func (d *ArrayDevice) dims() [3]int { return [3]int{d.n1, d.n2, d.n3} }

// PageReply is a readArray reply checked whole — a page's worth of values,
// all of them in the frame — so that taking values from it cannot fail.
// Its values are taken in runs, in any order, each run one copy straight
// out of the frame: the rows a walk over a larger array meets of one of
// its pages. Release returns the frame.
type PageReply struct {
	dec  *wire.Decoder
	vals []byte // the page's packed values, a view of dec's frame
}

// openReply checks readArray's reply whole before anything is taken from
// it, so a failed read stores nothing.
func (d *ArrayDevice) openReply(dec *wire.Decoder, err error) (PageReply, error) {
	if err != nil {
		return PageReply{}, err
	}
	vals := dec.Float64sView()
	if err := dec.Err(); err != nil {
		dec.Release()
		return PageReply{}, err
	}
	if want := d.n1 * d.n2 * d.n3; len(vals) != 8*want {
		dec.Release()
		return PageReply{}, fmt.Errorf("pagedev: %w: page reply carries %d values, a page has %d", wire.ErrCorrupt, len(vals)/8, want)
	}
	return PageReply{dec: dec, vals: vals}, nil
}

// Copy fills dst with the page's values from element off on, in row-major
// order: element (i, j, k) is at off (i*n2+j)*n3+k. A run that runs off
// the page is the caller's bug, and panics.
func (r *PageReply) Copy(dst []float64, off int) {
	wire.UnpackFloat64s(dst, r.vals[8*off:])
}

// Release returns the reply's frame to the pool; the reply is spent.
func (r *PageReply) Release() {
	r.dec.Release()
	r.dec, r.vals = nil, nil
}

// ReadPage fetches page index into p — "moving the data to the
// computation" (§3): the whole page crosses the network, then the caller
// computes locally (e.g. p.Sum()).
func (d *ArrayDevice) ReadPage(ctx context.Context, p *ArrayPage, index int) error {
	if err := d.checkDims(p); err != nil {
		return err
	}
	r, err := d.openReply(devReadArray.Call(ctx, d.client, d.ref, indexArgs(index)))
	if err != nil {
		return err
	}
	r.Copy(p.Data, 0)
	r.Release()
	return nil
}

// ReadPageAsync begins an array page read; settle it with OpenPage.
func (d *ArrayDevice) ReadPageAsync(ctx context.Context, index int) *rmi.Future {
	return devReadArray.CallAsync(ctx, d.client, d.ref, indexArgs(index))
}

// OpenPage settles a ReadPageAsync future: it waits for the reply and
// checks it whole. The caller takes the values it wants with Copy and then
// releases the reply.
func (d *ArrayDevice) OpenPage(ctx context.Context, fut *rmi.Future) (PageReply, error) {
	return d.openReply(fut.Wait(ctx))
}

// writePageArgs encodes writeArray(index, page) from vals, the page's
// values in row-major order. The frame borrows vals as its tail
// (wire.Encoder.BorrowFloat64s), so the values go to the transport from
// where they lie; the call has sent them when it is issued.
func (d *ArrayDevice) writePageArgs(index int, vals []float64) rmi.ArgEncoder {
	return func(e *wire.Encoder) error {
		if want := d.n1 * d.n2 * d.n3; len(vals) != want {
			return fmt.Errorf("pagedev: %d values for a page of %d", len(vals), want)
		}
		e.PutInt(index)
		e.BorrowFloat64s(vals, nil)
		return nil
	}
}

// WritePage stores p at page index.
func (d *ArrayDevice) WritePage(ctx context.Context, p *ArrayPage, index int) error {
	if err := d.checkDims(p); err != nil {
		return err
	}
	return voidReply(devWriteArray.Call(ctx, d.client, d.ref, d.writePageArgs(index, p.Data)))
}

// WritePageAsync begins the write of page index from vals, the page's
// values in row-major order. When it returns the values have left (on tcp
// written from where they lie) or never will: the caller may change vals
// then.
func (d *ArrayDevice) WritePageAsync(ctx context.Context, index int, vals []float64) *rmi.Future {
	return devWriteArray.CallAsync(ctx, d.client, d.ref, d.writePageArgs(index, vals))
}

// SubBox identifies a region inside a page, in local page coordinates:
// the box [Lo[a], Lo[a]+Dim[a]) per axis.
type SubBox struct {
	Lo  [3]int
	Dim [3]int
}

// Size returns the region's element count.
func (b SubBox) Size() int { return b.Dim[0] * b.Dim[1] * b.Dim[2] }

// within reports whether b lies inside an array of extents n. A dim is
// compared against the room left, not added to lo: the sum of two huge
// wire values would wrap past the check.
func (b SubBox) within(n [3]int) bool {
	for x := 0; x < 3; x++ {
		if b.Lo[x] < 0 || b.Dim[x] < 0 || b.Lo[x] > n[x] || b.Dim[x] > n[x]-b.Lo[x] {
			return false
		}
	}
	return true
}

func putSubBox(e *wire.Encoder, index int, box SubBox) {
	e.PutInt(index)
	for x := 0; x < 3; x++ {
		e.PutInt(box.Lo[x])
	}
	for x := 0; x < 3; x++ {
		e.PutInt(box.Dim[x])
	}
}

// WriteSubAsync overlays the region box of page index with vals, the
// box's values in row-major order, sent as Dim[0]*Dim[1] runs of Dim[2]
// values. The read-modify-write happens inside the device process's serial
// method, so concurrent clients updating disjoint regions of one page
// cannot lose updates.
func (d *ArrayDevice) WriteSubAsync(ctx context.Context, index int, box SubBox, vals []float64) *rmi.Future {
	return devWriteSub.CallAsync(ctx, d.client, d.ref, func(e *wire.Encoder) error {
		if !box.within(d.dims()) || len(vals) != box.Size() {
			return fmt.Errorf("pagedev: %d values for sub-box %+v of page %v", len(vals), box, d.dims())
		}
		putSubBox(e, index, box)
		run := box.Dim[2]
		for r := 0; r < box.Dim[0]*box.Dim[1]; r++ {
			e.PutFloat64s(vals[r*run : (r+1)*run])
		}
		return nil
	})
}
