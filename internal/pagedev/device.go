package pagedev

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"oopp/internal/disk"
	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// DiskPrivate as a disk index gives the device a private, unmodeled
// in-memory disk — the zero-setup mode used by quickstarts and tests.
const DiskPrivate = -1

// diskRemote marks a device whose backing is another PageDevice process
// (the §5 construct-from-process mode).
const diskRemote = -2

// access is what a method will do with a page it opens (withPage). It
// fixes what the access is charged and which side of the lock it takes.
type access uint8

const (
	readOnly access = iota
	update
	overwrite
)

// backing is where a device's pages physically live: a machine disk, or
// another PageDevice process reached over RMI (the §5 construct-from-
// process use case). readPage/writePage copy a whole page of bytes out or
// in, atomically with respect to each other and to a pinned page.
type backing interface {
	readPage(index int, dst []byte) error
	writePage(index int, src []byte) error
	// pin opens page index as float64s for withPages — everything that can
	// wait or refuse, and no lock — and unpin closes it. A resident store
	// charges the access and returns the page's own memory, to be touched only
	// between lock (waiting, or with try only if it is free) and unlock, and a
	// nil buf; the others a private copy (copies), loaded unless how is
	// overwrite, stored back if keep, with nothing to lock.
	pin(index int, how access) (elems []float64, buf *pageBuf, err error)
	unpin(index int, buf *pageBuf, keep bool) error
	lock(index int, write, try bool) bool
	unlock(index int, write bool)
	close() error
}

// copies is pin/unpin for a store s whose pages are not float64s in this
// process's memory: load into a pageBuf, pack and store from it. Pooled,
// not one per device, because readOnly pins run concurrently.
type copies struct {
	pageSize int
	pool     sync.Pool // *pageBuf
}

type pageBuf struct {
	bytes []byte
	elems []float64
}

func (c *copies) pin(s backing, index int, how access) ([]float64, *pageBuf, error) {
	buf, _ := c.pool.Get().(*pageBuf)
	if buf == nil {
		buf = &pageBuf{bytes: make([]byte, c.pageSize), elems: make([]float64, c.pageSize/8)}
	}
	if how != overwrite {
		err := s.readPage(index, buf.bytes)
		if err == nil {
			err = BytesToFloat64s(buf.elems, buf.bytes)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return buf.elems, buf, nil
}

func (c *copies) unpin(s backing, index int, buf *pageBuf, keep bool) (err error) {
	if keep {
		if err = Float64sToBytes(buf.bytes, buf.elems); err == nil {
			err = s.writePage(index, buf.bytes)
		}
	}
	c.pool.Put(buf)
	return err
}

// diskBacking stores pages on a disk.Disk from offset 0. Two devices
// opened on one disk index therefore alias the same bytes; they never
// were coherent with each other — no shared fence or counters — beyond
// what the disk itself gives every user: each page access whole.
//
// On a memory-backed disk whose bytes can be viewed as float64s the
// store is resident: a page is pinned by disk.Charge — charged as the
// copy would have been — and computed on where it is. The disk's lock on
// the page's bytes stands where the copies used to: write-held for one
// page's mutation, read-held for one page's read, so a reader outside the
// mailbox never sees a page torn; a holder only runs loops over memory.
type diskBacking struct {
	dsk     *disk.Disk
	private bool      // device owns the disk and closes it on destroy
	elems   []float64 // the disk's resident bytes; nil: none, every pin copies
	cp      copies
}

func newDiskBacking(dsk *disk.Disk, numPages, pageSize int, private bool) *diskBacking {
	b := &diskBacking{dsk: dsk, private: private, cp: copies{pageSize: pageSize}}
	if mem := dsk.Resident(); mem != nil {
		b.elems = f64view(mem[:numPages*pageSize])
	}
	return b
}

func (b *diskBacking) offset(index int) int64 { return int64(index) * int64(b.cp.pageSize) }

func (b *diskBacking) pin(index int, how access) ([]float64, *pageBuf, error) {
	if b.elems == nil {
		return b.cp.pin(b, index, how)
	}
	if err := b.dsk.Charge(b.offset(index), b.cp.pageSize, how != overwrite, how != readOnly); err != nil {
		return nil, nil, err
	}
	n := b.cp.pageSize / 8
	return b.elems[index*n : (index+1)*n : (index+1)*n], nil, nil
}

func (b *diskBacking) unpin(index int, buf *pageBuf, keep bool) error {
	if buf == nil {
		return nil
	}
	return b.cp.unpin(b, index, buf, keep)
}

func (b *diskBacking) lock(index int, write, try bool) bool {
	return b.elems == nil || b.dsk.Lock(b.offset(index), b.cp.pageSize, write, try)
}

func (b *diskBacking) unlock(index int, write bool) {
	if b.elems != nil {
		b.dsk.Release(b.offset(index), b.cp.pageSize, write)
	}
}

func (b *diskBacking) readPage(index int, dst []byte) error {
	return b.dsk.ReadAt(dst, b.offset(index))
}
func (b *diskBacking) writePage(index int, src []byte) error {
	return b.dsk.WriteAt(src, b.offset(index))
}

func (b *diskBacking) close() error {
	if b.private {
		return b.dsk.Close()
	}
	return nil
}

// remoteBacking delegates page I/O to an existing PageDevice process via
// RMI — the paper's "new_device may co-exist and communicate with the
// page_device process" (§5).
type remoteBacking struct {
	client *rmi.Client
	ref    rmi.Ref
	cp     copies
}

func (b *remoteBacking) pin(index int, how access) ([]float64, *pageBuf, error) {
	return b.cp.pin(b, index, how)
}

func (b *remoteBacking) unpin(index int, buf *pageBuf, keep bool) error {
	return b.cp.unpin(b, index, buf, keep)
}

func (b *remoteBacking) lock(index int, write, try bool) bool { return true }
func (b *remoteBacking) unlock(index int, write bool)         {}

func (b *remoteBacking) readPage(index int, dst []byte) error {
	d, err := devRead.Call(context.Background(), b.client, b.ref, func(e *wire.Encoder) error {
		e.PutInt(index)
		return nil
	})
	if err != nil {
		return err
	}
	defer d.Release()
	// Zero-copy view of the response frame, copied once into the caller's
	// page buffer; the frame recycles on release.
	got := d.BytesView()
	if err := d.Err(); err != nil {
		return err
	}
	if len(got) != len(dst) {
		return fmt.Errorf("pagedev: delegated read returned %d bytes, want %d", len(got), len(dst))
	}
	copy(dst, got)
	return nil
}

func (b *remoteBacking) writePage(index int, src []byte) error {
	d, err := devWrite.Call(context.Background(), b.client, b.ref, func(e *wire.Encoder) error {
		e.PutInt(index)
		e.PutBytes(src)
		return nil
	})
	d.Release()
	return err
}

func (b *remoteBacking) close() error { return nil }

// pageDevice is the server-side object: the storage process of §2. Its
// methods run serially through the object mailbox — the object is its
// process — except readSubBatch and co-located peers' pulls, which read
// pages from outside it: hence the atomic I/O counters, and stores that
// can be pinned readOnly concurrently.
type pageDevice struct {
	deviceArgs
	store  backing
	reads  atomic.Int64
	writes atomic.Int64
	raw    []byte // one page in flight in a serial byte-protocol method (pageBytes)

	// fence holds page indices mid-migration: mutators targeting a
	// fenced page are refused typed (rmi.ErrFenced) so the caller can
	// park and replay against the flipped map; reads are never fenced.
	// Accessed only from serial mailbox methods — no lock (see fence.go).
	fence map[int]struct{}
}

// pageBytes is the byte protocol's page buffer (read: serial).
func (p *pageDevice) pageBytes() []byte {
	if len(p.raw) != p.pageSize {
		p.raw = make([]byte, p.pageSize)
	}
	return p.raw
}

// base lets inherited method implementations reach the embedded
// pageDevice regardless of the concrete derived type.
func (p *pageDevice) base() *pageDevice { return p }

// baser is satisfied by pageDevice and everything embedding it.
type baser interface{ base() *pageDevice }

func (p *pageDevice) checkIndex(index int) error {
	if index < 0 || index >= p.numPages {
		return fmt.Errorf("pagedev: page index %d out of range [0,%d)", index, p.numPages)
	}
	return nil
}

// write is the byte protocol's mutator. Every mutator checks the fence
// before its first store — here, or in withPage — so a refused single-page
// mutator has changed nothing; batched ones pre-scan their regions besides.
func (p *pageDevice) write(index int, src []byte) error {
	if err := p.checkIndex(index); err != nil {
		return err
	}
	if err := p.checkFence(index); err != nil {
		return err
	}
	if len(src) != p.pageSize {
		return fmt.Errorf("pagedev: page is %d bytes, device page size is %d", len(src), p.pageSize)
	}
	if err := p.store.writePage(index, src); err != nil {
		return err
	}
	p.writes.Add(1)
	return nil
}

// OnDestroy implements rmi.Destroyer: a private disk dies with its
// process.
func (p *pageDevice) OnDestroy(env *rmi.Env) error { return p.store.close() }

// deviceArgs is PageDevice's constructor argument: a label, numPages
// pages of pageSize bytes, and the disk behind them — DiskPrivate, a
// machine disk's index, or (for a device built from a process, never on
// the wire) diskRemote. A device's saved state begins with it too.
type deviceArgs struct {
	name               string
	numPages, pageSize int
	diskIndex          int
}

// deviceCodec refuses a geometry with no size in int64 (checkGeometry).
var deviceCodec = wire.Codec[deviceArgs]{
	Put: func(e *wire.Encoder, a deviceArgs) {
		e.PutString(a.name)
		e.PutInt(a.numPages)
		e.PutInt(a.pageSize)
		e.PutInt(a.diskIndex)
	},
	Get: func(d *wire.Decoder) (deviceArgs, error) {
		a := deviceArgs{d.String(), d.Int(), d.Int(), d.Int()}
		if err := d.Err(); err != nil {
			return a, err
		}
		return a, checkGeometry(a.numPages, [3]int{a.pageSize, 1, 1}, 1)
	},
}

// geometryError refuses a device whose geometry has no size: pages pages
// of page[0]×page[1]×page[2] elements of elem bytes, where a count is below
// one or the device's bytes do not fit in an int64.
type geometryError struct {
	pages, elem int
	page        [3]int
}

func (e *geometryError) Error() string {
	return fmt.Sprintf("pagedev: invalid geometry: %d pages of %dx%dx%d elements of %d B",
		e.pages, e.page[0], e.page[1], e.page[2], e.elem)
}

// checkGeometry refuses with a *geometryError unless every count is at
// least one and numPages pages of page[0]·page[1]·page[2] elements of elem
// bytes fit in an int64.
func checkGeometry(numPages int, page [3]int, elem int) error {
	size := int64(elem)
	for _, n := range [...]int{page[0], page[1], page[2], numPages} {
		if n < 1 || size > math.MaxInt64/int64(n) {
			return &geometryError{numPages, elem, page}
		}
		size *= int64(n)
	}
	return nil
}

// newPageDevice constructs the storage process on the disk a names. Shared
// constructor logic for both the base and the derived class; a's geometry
// has passed its codec.
func newPageDevice(env *rmi.Env, a deviceArgs) (*pageDevice, error) {
	need := int64(a.numPages) * int64(a.pageSize)
	var store backing
	if a.diskIndex == DiskPrivate {
		dsk := disk.NewMem(a.name, need, disk.Model{})
		dsk.CountInto(env.Counters())
		store = newDiskBacking(dsk, a.numPages, a.pageSize, true)
	} else {
		res, err := env.MustResource(fmt.Sprintf("disk/%d", a.diskIndex))
		if err != nil {
			return nil, err
		}
		dsk, ok := res.(*disk.Disk)
		if !ok {
			return nil, fmt.Errorf("pagedev: resource disk/%d is %T, not a disk", a.diskIndex, res)
		}
		if dsk.Size() < need {
			return nil, fmt.Errorf("pagedev: device %q needs %d bytes, disk/%d has %d", a.name, need, a.diskIndex, dsk.Size())
		}
		store = newDiskBacking(dsk, a.numPages, a.pageSize, false)
	}
	return &pageDevice{deviceArgs: a, store: store}, nil
}

// remoteDevice is a device whose numPages pages of pageSize bytes are those
// of another PageDevice process, src, reached through the machine's
// outbound client — the §5 construct-from-process backing.
func remoteDevice(env *rmi.Env, name string, src rmi.Ref, numPages, pageSize int) (*pageDevice, error) {
	if env.Client == nil {
		return nil, fmt.Errorf("pagedev: machine %d has no outbound client", env.Machine)
	}
	return &pageDevice{
		deviceArgs: deviceArgs{name, numPages, pageSize, diskRemote},
		store:      &remoteBacking{client: env.Client, ref: src, cp: copies{pageSize: pageSize}},
	}, nil
}

// PageDeviceClass is the registered base class.
var PageDeviceClass = rmi.RegisterClass("pagedev.PageDevice", deviceCodec,
	func(env *rmi.Env, a deviceArgs) (baser, error) { return newPageDevice(env, a) })

// The PageDevice protocol, the "compiler output" for the §2 class
// declaration: declared on the base class, inherited by ArrayPageDevice.
var (
	devWrite = PageDeviceClass.Declare("write", func(obj baser, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		p := obj.base()
		index := args.Int()
		data := args.Bytes()
		if err := args.Err(); err != nil {
			return err
		}
		return p.write(index, data)
	})
	devRead = PageDeviceClass.Declare("read", func(obj baser, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		p := obj.base()
		index := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		if err := p.checkIndex(index); err != nil {
			return err
		}
		buf := p.pageBytes()
		if err := p.store.readPage(index, buf); err != nil {
			return err
		}
		p.reads.Add(1)
		reply.PutBytes(buf)
		return nil
	})
	devNumPages = rmi.DeclareOp(PageDeviceClass, "numPages", wire.Void, wire.Int, func(obj baser, env *rmi.Env, _ struct{}) (int, error) {
		return obj.base().numPages, nil
	})
	devName = rmi.DeclareOp(PageDeviceClass, "name", wire.Void, wire.String, func(obj baser, env *rmi.Env, _ struct{}) (string, error) {
		return obj.base().name, nil
	})
	devStats = rmi.DeclareOp(PageDeviceClass, "stats", wire.Void, statsCodec, func(obj baser, env *rmi.Env, _ struct{}) (deviceStats, error) {
		p := obj.base()
		return deviceStats{p.reads.Load(), p.writes.Load()}, nil
	})
	devCheckpointTo = rmi.DeclareOp(PageDeviceClass, "checkpointTo", checkpointCodec, wire.Void, func(obj baser, env *rmi.Env, a checkpointArgs) (struct{}, error) {
		// checkpointTo(store Ref, name, class): serialize this device's
		// full representation (the same SaveState blob passivation
		// produces) and ship it to a persist store — typically on
		// *another* machine, so the checkpoint survives losing this one.
		// Runs in the serial mailbox, so the snapshot is consistent with
		// every other device method; the device stays live throughout
		// (unlike passivate).
		return struct{}{}, checkpointTo(obj, env, a)
	})
)

// deviceStats is the reply of stats: the reads and writes a device served.
type deviceStats struct{ reads, writes int64 }

var statsCodec = wire.CodecOf(
	func(e *wire.Encoder, s deviceStats) { e.PutVarint(s.reads); e.PutVarint(s.writes) },
	func(d *wire.Decoder) deviceStats { return deviceStats{d.Varint(), d.Varint()} })

// checkpointArgs is the argument of checkpointTo: the persist store, and
// the name and class the device's blob is stored under.
type checkpointArgs struct {
	store       rmi.Ref
	name, class string
}

var checkpointCodec = wire.CodecOf(
	func(e *wire.Encoder, a checkpointArgs) { e.PutRef(a.store); e.PutString(a.name); e.PutString(a.class) },
	func(d *wire.Decoder) checkpointArgs { return checkpointArgs{d.Ref(), d.String(), d.String()} })

func checkpointTo(obj baser, env *rmi.Env, a checkpointArgs) error {
	p := obj.base()
	if env.Client == nil {
		return fmt.Errorf("pagedev: machine %d has no outbound client", env.Machine)
	}
	sav, ok := obj.(interface{ SaveState(*wire.Encoder) error })
	if !ok {
		return fmt.Errorf("pagedev: %T cannot checkpoint", obj)
	}
	e := wire.NewEncoder(p.numPages*p.pageSize + 256)
	if err := sav.SaveState(e); err != nil {
		return err
	}
	return persist.AttachStore(env.Client, a.store).Put(env.Ctx(), a.name, a.class, e.Bytes())
}

// arrayPageDevice is the derived process (§3): same storage protocol,
// plus structure-aware computation. Embedding pageDevice is Go's
// rendering of the paper's "class ArrayPageDevice : public PageDevice".
type arrayPageDevice struct {
	*pageDevice
	n1, n2, n3 int
	// staged holds values a serial method has fetched or decoded but not
	// yet stored — fetched operands, a written box — since gathering can
	// fail and a page entered for writing must not. Slot 0 is the method's,
	// a kernel batch's fetched piece among them; slot w+1 is that batch's
	// worker w's, for operands it copies out. Kept between batches.
	staged [][]float64
	// lent is the page a readArray reply has borrowed, entered until
	// giveBack — a.leave, bound at the first lend — runs.
	lent     lentPage
	giveBack func()
}

// lentPage is a page entered readOnly for a reply that lends it (lend).
type lentPage struct {
	index int
	buf   *pageBuf
}

// constructor modes for ArrayPageDevice (§3 fresh, §5 from-process).
const (
	ctorFresh       = 0
	ctorFromProcess = 1
)

// ArrayDeviceArgs is ArrayPageDevice's constructor argument: NumPages
// pages of Dims float64s, and either a label and a disk of their own
// (fresh, §3) or, FromProcess, those of the PageDevice process Src (§5).
type ArrayDeviceArgs struct {
	FromProcess bool
	Name        string  // fresh
	Src         rmi.Ref // FromProcess
	NumPages    int
	Dims        [3]int
	DiskIndex   int // fresh: DiskPrivate or a machine disk's index
}

// arrayDeviceCodec writes the mode, then the label or Src, the count and
// dims, and a fresh device's disk; it refuses a geometry with no size in
// int64 (checkGeometry).
var arrayDeviceCodec = wire.Codec[ArrayDeviceArgs]{
	Put: func(e *wire.Encoder, a ArrayDeviceArgs) {
		if a.FromProcess {
			e.PutInt(ctorFromProcess)
			e.PutRef(a.Src)
		} else {
			e.PutInt(ctorFresh)
			e.PutString(a.Name)
		}
		e.PutInt(a.NumPages)
		for _, n := range a.Dims {
			e.PutInt(n)
		}
		if !a.FromProcess {
			e.PutInt(a.DiskIndex)
		}
	},
	Get: func(d *wire.Decoder) (a ArrayDeviceArgs, err error) {
		switch mode := d.Int(); mode {
		case ctorFresh:
			a.Name = d.String()
		case ctorFromProcess:
			a.FromProcess, a.Src = true, d.Ref()
		default:
			return a, fmt.Errorf("pagedev: %w: unknown constructor mode %d", wire.ErrCorrupt, mode)
		}
		a.NumPages = d.Int()
		a.Dims = [3]int{d.Int(), d.Int(), d.Int()}
		if !a.FromProcess {
			a.DiskIndex = d.Int()
		}
		if err = d.Err(); err != nil {
			return a, err
		}
		return a, checkGeometry(a.NumPages, a.Dims, 8)
	},
}

// ArrayPageDeviceClass is the registered derived class; it inherits every
// base method and adds the structure-aware ones.
var ArrayPageDeviceClass = rmi.ExtendClass(PageDeviceClass, "pagedev.ArrayPageDevice", arrayDeviceCodec,
	func(env *rmi.Env, a ArrayDeviceArgs) (*arrayPageDevice, error) {
		// The paper's derived constructor computes the page size from the
		// block dims: N1*N2*N3*sizeof(double), which the codec has sized.
		pageSize := a.Dims[0] * a.Dims[1] * a.Dims[2] * 8
		var pd *pageDevice
		var err error
		if a.FromProcess {
			// §5: ArrayPageDevice(PageDevice * page_device) — the new
			// process co-exists with and delegates to the existing one.
			pd, err = remoteDevice(env, a.Src.String(), a.Src, a.NumPages, pageSize)
		} else {
			pd, err = newPageDevice(env, deviceArgs{a.Name, a.NumPages, pageSize, a.DiskIndex})
		}
		if err != nil {
			return nil, err
		}
		return &arrayPageDevice{pageDevice: pd, n1: a.Dims[0], n2: a.Dims[1], n3: a.Dims[2]}, nil
	})

// The structure-aware methods ArrayPageDevice adds (§3).
var (
	// readArray(index): page index's values, which the reply lends from
	// the page itself (lend) rather than packing them into the frame.
	devReadArray = ArrayPageDeviceClass.Declare("readArray", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		index := args.Int()
		if err := args.Err(); err != nil {
			return err
		}
		return a.lend(index, reply)
	})
	devWriteArray = ArrayPageDeviceClass.Declare("writeArray", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		// The frame is validated before the page is entered — a page's worth
		// of values announced, every byte of them present — and only then
		// copied, once, from the frame to the page: a short or wrong-length
		// frame changes nothing, and the copy cannot fail.
		index := args.Int()
		n := args.Float64sLen()
		if err := args.Err(); err != nil {
			return err
		}
		if n != a.n1*a.n2*a.n3 {
			return fmt.Errorf("pagedev: %w: writeArray carries %d values, a page has %d", wire.ErrCorrupt, n, a.n1*a.n2*a.n3)
		}
		return a.withPage(index, overwrite, args.CopyFloat64s)
	})
	// writeSub(index, lo3, dim3, rows...): overlay a sub-box with values
	// that arrive row-packed, dim1*dim2 runs of dim3 float64s. A serial
	// method, so the read-modify-write of the page region is atomic with
	// respect to every other method on the device — this is what lets
	// multiple Array clients write disjoint regions of a shared page
	// concurrently (§5) without lost updates, and it ships only the
	// region instead of the whole page. The rows are decoded before the
	// page is opened: a truncated frame changes nothing.
	devWriteSub = ArrayPageDeviceClass.Declare("writeSub", func(a *arrayPageDevice, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		index := args.Int()
		lo, dim, err := decodeSubBox(args, a.page())
		if err != nil {
			return err
		}
		rows := a.stage(0, dim[0]*dim[1]*dim[2])
		for off := 0; off < len(rows); off += dim[2] {
			args.Float64sInto(rows[off : off+dim[2]])
		}
		if err := args.Err(); err != nil {
			return err
		}
		return a.withPage(index, update, func(elems []float64) { scatterRuns(elems, a.n2, a.n3, lo, dim, rows) })
	})
	devReadSubBatch = ArrayPageDeviceClass.DeclareConcurrent("readSubBatch", (*arrayPageDevice).readSubBatch)
)

// withPage is the device's one page accessor for a method that touches
// elements itself: it does it inside fn, on page index as float64s — the
// store's own memory under its contents lock when the store is resident, a
// copy loaded before and stored after fn otherwise (backing.pin). fn may
// only read (readOnly: one read charged; safe outside the mailbox), may
// modify in place (update: a read and a write), or must write every
// element (overwrite: one write; contents on entry undefined). One page of
// withPages. A page that leaves in a reply is not read inside fn but lent
// (lend), entered the same way until the reply has left.
func (a *arrayPageDevice) withPage(index int, how access, fn func(elems []float64)) error {
	return withPages([]pageRef{{dev: a, index: index, how: how}}, nil, fn)
}

// lend answers readArray from the page itself, with no copy: it enters page
// index readOnly as withPage would — pinned, then read-locked on a resident
// store; on a copying store the pooled copy is loaded — and the reply
// borrows its elements as its tail (wire.Encoder.BorrowFloat64s). The page
// stays entered until the reply has left, when rmi runs the giveBack: on
// this method's goroutine, before the device's next serial method, so a
// device lends one page at a time. Until then readers outside the
// mailbox share the page and writers outside it — a co-located device's
// pull, a device on the same machine disk — wait for it or miss.
func (a *arrayPageDevice) lend(index int, reply *wire.Encoder) error {
	if err := a.checkIndex(index); err != nil {
		return err
	}
	vals, buf, err := a.store.pin(index, readOnly)
	if err != nil {
		return err
	}
	a.reads.Add(1)
	a.store.lock(index, false, false)
	if a.giveBack == nil {
		a.giveBack = a.leave
	}
	a.lent = lentPage{index: index, buf: buf}
	reply.BorrowFloat64s(vals, a.giveBack)
	return nil
}

// leave gives back the lent page: unlock, then unpin, which for a readOnly
// page stores nothing and cannot fail.
func (a *arrayPageDevice) leave() {
	l := a.lent
	a.lent = lentPage{}
	a.store.unlock(l.index, false)
	_ = a.store.unpin(l.index, l.buf, false)
}

// pageRef is one page of an access (withPages): page index of dev, entered
// as how says. One read beside the entered page — of a co-located device cut
// into pages alike, or the same device — names the box read: inside fn vals is
// that page, read-held, or — dev nil — the box row-packed: copied out by
// withPages, or fetched by the caller beforehand.
type pageRef struct {
	dev   *arrayPageDevice
	index int
	how   access
	box   SubBox
	vals  []float64
	buf   *pageBuf
}

// run is the peer's values beside elements [off, off+n) of the entered page, the box's pos-th on.
func (p *pageRef) run(off, pos, n int) []float64 {
	if p.dev == nil {
		off = pos
	}
	return p.vals[off : off+n]
}

// withPages enters pages[0] — fn gets its elements — with pages[1:] beside it.
// What can wait or refuse comes first, holding nothing, page by page: index
// and fence checks, then the pin (the disk's charge, a copy's load). fn cannot
// fail, and what it stores in a resident page is stored for good; so a method
// fetches remote operands, decodes frames and scans fences BEFORE it, and fn
// must not wait or enter a page. Then the locks: the first is waited for, the
// others only tried — a holder of a contents lock waits for nothing: a peer
// may be the entered page, lie under its stripes, or be what a co-located
// device writes while it tries for ours. On a miss all is given back, the
// missed box copied out to slot(i) under its own lock alone, charged already.
//
// That covers errors, not panics: a kernel that panics mid-page (rmi
// recovers it, the call fails) gives every page up and a copy is dropped,
// but a resident page keeps what the kernel had written.
// A kernel batch's helpers call it too: the fence map is read only while
// the serial method that owns it is blocked in the join.
func withPages(pages []pageRef, slot func(i int) []float64, fn func(elems []float64)) error {
	for i := range pages {
		p := &pages[i]
		if p.dev == nil {
			continue
		}
		err := p.dev.checkIndex(p.index)
		if err == nil && p.how != readOnly {
			err = p.dev.checkFence(p.index)
		}
		if err == nil {
			p.vals, p.buf, err = p.dev.store.pin(p.index, p.how)
		}
		if err != nil {
			return err
		}
		if p.how != overwrite {
			p.dev.reads.Add(1)
		}
	}
	unlock := func(n int) {
		for i := range pages[:n] {
			if p := &pages[i]; p.dev != nil {
				p.dev.store.unlock(p.index, p.how != readOnly)
			}
		}
	}
	for i := 0; i < len(pages); i++ {
		p := &pages[i]
		if p.dev == nil || p.dev.store.lock(p.index, p.how != readOnly, i > 0) {
			continue
		}
		unlock(i)
		dst := slot(i)
		p.dev.store.lock(p.index, false, false)
		gatherRuns(dst, p.vals, p.dev.n2, p.dev.n3, p.box.Lo, p.box.Dim)
		p.dev.store.unlock(p.index, false)
		p.vals, p.dev, i = dst, nil, -1 // from the entered page again
	}
	func() {
		defer unlock(len(pages))
		fn(pages[0].vals)
	}()
	for i := range pages {
		if p := &pages[i]; p.dev != nil {
			if err := p.dev.store.unpin(p.index, p.buf, p.how != readOnly); err != nil {
				return err
			}
			if p.how != readOnly {
				p.dev.writes.Add(1)
			}
		}
	}
	return nil
}

// stage returns n elements of worker w's staging buffer (see staged), one
// staging at a time. Only the method's goroutine may name a new worker.
func (a *arrayPageDevice) stage(w, n int) []float64 {
	for len(a.staged) <= w {
		a.staged = append(a.staged, nil)
	}
	if cap(a.staged[w]) < n {
		a.staged[w] = make([]float64, n)
	}
	return a.staged[w][:n]
}

// page is the device's page geometry.
func (a *arrayPageDevice) page() [3]int { return [3]int{a.n1, a.n2, a.n3} }

// decodeSubBox reads a sub-box header (origin + dims in local page
// coordinates) and validates it against the n1×n2×n3 page geometry.
func decodeSubBox(args *wire.Decoder, page [3]int) (lo [3]int, dim [3]int, err error) {
	for x := 0; x < 3; x++ {
		lo[x] = args.Int()
	}
	for x := 0; x < 3; x++ {
		dim[x] = args.Int()
	}
	if err := args.Err(); err != nil {
		return lo, dim, err
	}
	if box := (SubBox{Lo: lo, Dim: dim}); !box.within(page) {
		return lo, dim, fmt.Errorf("pagedev: sub-box %+v outside page %v", box, page)
	}
	return lo, dim, nil
}

// localArrayDevice resolves a ref to a co-located ArrayPageDevice object
// when the ref points into this machine's own server — the shared
// address-space fast path of the device-to-device transfers. Callers
// may only read the peer's pages — in place under the page's read lock
// (withPages), or copied out under it (serveSub): the peer's mailbox may
// be running a method of its own.
func localArrayDevice(env *rmi.Env, ref rmi.Ref) (*arrayPageDevice, bool) {
	if ref.Machine != env.Machine {
		return nil, false
	}
	res, ok := env.Resource(rmi.ResourceServer)
	if !ok {
		return nil, false
	}
	srv, ok := res.(*rmi.Server)
	if !ok {
		return nil, false
	}
	inst, ok := srv.Object(ref.Object)
	if !ok {
		return nil, false
	}
	dev, ok := inst.(*arrayPageDevice)
	return dev, ok
}
