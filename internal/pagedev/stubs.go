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
	ref, err := PageDeviceClass.New(ctx, client, m, func(e *wire.Encoder) error {
		e.PutString(name)
		e.PutInt(numPages)
		e.PutInt(pageSize)
		e.PutInt(diskIndex)
		return nil
	})
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
	return voidReply(d.client.Call(ctx, d.ref, "write", func(e *wire.Encoder) error {
		e.PutInt(index)
		e.PutBytes(data)
		return nil
	}))
}

// Read fetches the page at the given index.
func (d *Device) Read(ctx context.Context, index int) ([]byte, error) {
	return pageReply(d.client.Call(ctx, d.ref, "read", indexArgs(index)))
}

// ReadAsync begins a page read; its reply holds the page bytes.
func (d *Device) ReadAsync(ctx context.Context, index int) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "read", indexArgs(index))
}

// NumPages returns the device capacity in pages.
func (d *Device) NumPages(ctx context.Context) (int, error) {
	dec, err := d.client.Call(ctx, d.ref, "numPages", nil)
	if err != nil {
		return 0, err
	}
	defer dec.Release()
	n := dec.Int()
	return n, dec.Err()
}

// Name returns the device label.
func (d *Device) Name(ctx context.Context) (string, error) {
	dec, err := d.client.Call(ctx, d.ref, "name", nil)
	if err != nil {
		return "", err
	}
	defer dec.Release()
	s := dec.String()
	return s, dec.Err()
}

// Stats returns the device's served (reads, writes).
func (d *Device) Stats(ctx context.Context) (reads, writes int64, err error) {
	dec, err := d.client.Call(ctx, d.ref, "stats", nil)
	if err != nil {
		return 0, 0, err
	}
	defer dec.Release()
	reads = dec.Varint()
	writes = dec.Varint()
	return reads, writes, dec.Err()
}

// CheckpointToAsync begins a device checkpoint: the device serializes
// its full representation inside its serial mailbox and ships it to the
// persist store ref (usually on another machine) under name — the
// checkpoint half of cold recovery. The device stays live; the blob
// activates later like any passivated process.
func (d *Device) CheckpointToAsync(ctx context.Context, store rmi.Ref, name string) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "checkpointTo", func(e *wire.Encoder) error {
		e.PutRef(store)
		e.PutString(name)
		e.PutString(d.ref.Class)
		return nil
	})
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
	ref, err := ArrayPageDeviceClass.New(ctx, client, m, func(e *wire.Encoder) error {
		EncodeArrayDeviceCtor(e, name, numPages, n1, n2, n3, diskIndex)
		return nil
	})
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
	ref, err := ArrayPageDeviceClass.New(ctx, client, m, func(e *wire.Encoder) error {
		e.PutInt(ctorFromProcess)
		e.PutRef(src)
		e.PutInt(numPages)
		e.PutInt(n1)
		e.PutInt(n2)
		e.PutInt(n3)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return AttachArrayDevice(client, ref, n1, n2, n3), nil
}

// EncodeArrayDeviceCtor appends the fresh-construction arguments of an
// ArrayPageDevice to e — the constructor protocol NewArrayDevice speaks,
// exported so collective spawns (core.CreateBlockStorage's collection)
// can construct devices without going through one stub call per member.
func EncodeArrayDeviceCtor(e *wire.Encoder, name string, numPages, n1, n2, n3, diskIndex int) {
	e.PutInt(ctorFresh)
	e.PutString(name)
	e.PutInt(numPages)
	e.PutInt(n1)
	e.PutInt(n2)
	e.PutInt(n3)
	e.PutInt(diskIndex)
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

// Block names the elements a transfer gathers from or scatters to where
// they are, in the caller's memory: the sub-box Box of a row-major array
// Data whose second and third extents are N2 and N3. The stubs move a
// block's runs between Data and the frame directly, so a page that is a
// piece of a larger array is never assembled in a buffer of its own.
type Block struct {
	Data   []float64
	N2, N3 int
	Box    SubBox
}

// Whole is the block that is all of page p.
func (p *ArrayPage) Whole() Block {
	return Block{Data: p.Data, N2: p.N2, N3: p.N3, Box: SubBox{Dim: [3]int{p.N1, p.N2, p.N3}}}
}

// check refuses a block that is not dim-shaped or not inside its Data.
func (b Block) check(dim [3]int) error {
	if b.Box.Dim != dim {
		return fmt.Errorf("pagedev: block of %v elements where %v are wanted", b.Box.Dim, dim)
	}
	if b.N2 <= 0 || b.N3 <= 0 || !b.Box.within([3]int{len(b.Data) / (b.N2 * b.N3), b.N2, b.N3}) {
		return fmt.Errorf("pagedev: block %+v outside its %d-element ?x%dx%d array", b.Box, len(b.Data), b.N2, b.N3)
	}
	return nil
}

// contiguous reports whether the block's elements are one run of Data.
func (b Block) contiguous() bool {
	return b.Box.Lo[1] == 0 && b.Box.Lo[2] == 0 && b.Box.Dim[1] == b.N2 && b.Box.Dim[2] == b.N3
}

// origin is the index in Data of the block's first element; its row (i, j)
// starts (i*N2+j)*N3 after that.
func (b *Block) origin() int {
	return (b.Box.Lo[0]*b.N2+b.Box.Lo[1])*b.N3 + b.Box.Lo[2]
}

func (d *ArrayDevice) dims() [3]int { return [3]int{d.n1, d.n2, d.n3} }

// scatterReply settles readArray: the sub-box box of the page in the reply
// goes to dst, each run copied once, from the frame to where it belongs.
// The reply is validated whole — a page's worth of values, all present —
// before the first element is stored, so a failed read leaves dst as it
// was.
func (d *ArrayDevice) scatterReply(dec *wire.Decoder, err error, box SubBox, dst Block) error {
	if err != nil {
		return err
	}
	defer dec.Release()
	if !box.within(d.dims()) {
		return fmt.Errorf("pagedev: sub-box %+v outside page %v", box, d.dims())
	}
	if err := dst.check(box.Dim); err != nil {
		return err
	}
	n := dec.Float64sLen()
	if err := dec.Err(); err != nil {
		return err
	}
	if n != d.n1*d.n2*d.n3 {
		return fmt.Errorf("pagedev: %w: page reply carries %d values, a page has %d", wire.ErrCorrupt, n, d.n1*d.n2*d.n3)
	}
	// Both sides walk their rows from the box's first element: row (i, j)
	// starts (i*N2+j)*N3 after it.
	page := Block{N2: d.n2, N3: d.n3, Box: box}
	from0, at0 := page.origin(), dst.origin()
	if page.contiguous() && dst.contiguous() {
		dec.SkipFloat64s(from0)
		dec.CopyFloat64s(dst.Data[at0 : at0+box.Size()])
		return dec.Err()
	}
	pos, run := 0, box.Dim[2]
	for i := 0; i < box.Dim[0]; i++ {
		for j := 0; j < box.Dim[1]; j++ {
			from, at := from0+(i*d.n2+j)*d.n3, at0+(i*dst.N2+j)*dst.N3
			dec.SkipFloat64s(from - pos)
			dec.CopyFloat64s(dst.Data[at : at+run])
			pos = from + run
		}
	}
	return dec.Err()
}

// ReadPage fetches page index into p — "moving the data to the
// computation" (§3): the whole page crosses the network, then the caller
// computes locally (e.g. p.Sum()).
func (d *ArrayDevice) ReadPage(ctx context.Context, p *ArrayPage, index int) error {
	if err := d.checkDims(p); err != nil {
		return err
	}
	dec, err := d.client.Call(ctx, d.ref, "readArray", indexArgs(index))
	return d.scatterReply(dec, err, p.Whole().Box, p.Whole())
}

// ReadPageAsync begins an array page read; settle it with ScatterPage.
func (d *ArrayDevice) ReadPageAsync(ctx context.Context, index int) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "readArray", indexArgs(index))
}

// ScatterPage settles a ReadPageAsync future: the sub-box box of the page
// read goes to the equally shaped block dst, straight from the reply.
func (d *ArrayDevice) ScatterPage(ctx context.Context, fut *rmi.Future, box SubBox, dst Block) error {
	dec, err := fut.Wait(ctx)
	return d.scatterReply(dec, err, box, dst)
}

// writePageArgs encodes writeArray(index, page) with the page's values
// gathered from src straight into the frame.
func (d *ArrayDevice) writePageArgs(index int, src Block) rmi.ArgEncoder {
	return func(e *wire.Encoder) error {
		if err := src.check(d.dims()); err != nil {
			return err
		}
		e.PutInt(index)
		e.PutFloat64sLen(src.Box.Size())
		forEachRun(src.N2, src.N3, src.Box.Lo, src.Box.Dim, func(off, n int) { e.AppendFloat64s(src.Data[off : off+n]) })
		return nil
	}
}

// WritePage stores p at page index.
func (d *ArrayDevice) WritePage(ctx context.Context, p *ArrayPage, index int) error {
	if err := d.checkDims(p); err != nil {
		return err
	}
	return voidReply(d.client.Call(ctx, d.ref, "writeArray", d.writePageArgs(index, p.Whole())))
}

// WritePageAsync begins the write of page index from src, a block of the
// page's extents.
func (d *ArrayDevice) WritePageAsync(ctx context.Context, index int, src Block) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "writeArray", d.writePageArgs(index, src))
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

// WriteSubAsync overlays the region box of page index with the equally
// shaped block src, sent row-packed: Dim[0]*Dim[1] runs of Dim[2] values,
// gathered straight into the frame. The read-modify-write happens inside
// the device process's serial method, so concurrent clients updating
// disjoint regions of one page cannot lose updates.
func (d *ArrayDevice) WriteSubAsync(ctx context.Context, index int, box SubBox, src Block) *rmi.Future {
	return d.client.CallAsync(ctx, d.ref, "writeSub", func(e *wire.Encoder) error {
		if err := src.check(box.Dim); err != nil {
			return err
		}
		putSubBox(e, index, box)
		at0, run := src.origin(), box.Dim[2]
		for i := 0; i < box.Dim[0]; i++ {
			for j := 0; j < box.Dim[1]; j++ {
				at := at0 + (i*src.N2+j)*src.N3
				e.PutFloat64s(src.Data[at : at+run])
			}
		}
		return nil
	})
}
