// Package disk simulates the block storage hardware the paper assumes:
// "a half-petabyte-sized array, stored on hundreds of hard-drives that are
// attached to multiple computing nodes".
//
// We do not have hundreds of hard drives, so we substitute a disk model
// that preserves the two properties every I/O claim in the paper rests on:
//
//  1. A single disk serializes its requests (one head): two reads on the
//     same device take twice as long as one.
//  2. Distinct disks operate concurrently: N reads on N devices take as
//     long as one (this is exactly the §4 parallel-I/O claim).
//
// A Disk has a seek time and a bandwidth; an operation on n bytes holds
// the device for Seek + n/Bandwidth. The zero-cost configuration (both
// zero) is used by correctness tests; benchmarks install realistic values
// (e.g. 100µs seek, 200 MB/s) scaled down so suites finish quickly.
//
// Backing storage is either memory (default; keeps tests hermetic) or a
// real file on the host filesystem.
//
// A memory-backed disk can also be used in place: Resident hands out its
// live bytes, and Charge holds the device and counts the access exactly
// as ReadAt/WriteAt of the same range would — closed and bounds checks,
// modeled Seek + n/Bandwidth, Ops() and its machine's Disk* counters —
// while moving no byte. What the memcpy gave for free, that nobody sees a
// range half-written, the contents lock gives instead: Lock holds it
// until Release and ReadAt/WriteAt take it around their own move, so
// every user of one disk, in place or copying, sees each access whole.
// The lock is on the access's byte range: overlapping ranges exclude (readers
// share); disjoint ones — two workers of a device on two pages — need not wait.
//
// A caller with several ranges in hand, of one disk or of many, Charges each
// first, holding nothing — a charge waits for the device and can refuse —
// then Locks ONE and only tries the rest. A holder waits for nothing: on a
// miss it gives back what it has and takes the ranges one at a time, so no
// order among them is needed.
package disk

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"oopp/internal/metrics"
	"oopp/internal/simtime"
)

// Model describes the performance characteristics of a simulated disk.
type Model struct {
	// Seek is the fixed cost per operation (head movement + rotational
	// latency + controller overhead).
	Seek time.Duration
	// ReadBandwidth and WriteBandwidth are sustained transfer rates in
	// bytes per second. Zero means infinitely fast.
	ReadBandwidth  float64
	WriteBandwidth float64
}

// IsZero reports whether the model imposes no simulated delays.
func (m Model) IsZero() bool {
	return m.Seek == 0 && m.ReadBandwidth == 0 && m.WriteBandwidth == 0
}

// ReadTime returns the modeled duration of an n-byte read.
func (m Model) ReadTime(n int) time.Duration {
	d := m.Seek
	if m.ReadBandwidth > 0 {
		d += time.Duration(float64(n) / m.ReadBandwidth * float64(time.Second))
	}
	return d
}

// WriteTime returns the modeled duration of an n-byte write.
func (m Model) WriteTime(n int) time.Duration {
	d := m.Seek
	if m.WriteBandwidth > 0 {
		d += time.Duration(float64(n) / m.WriteBandwidth * float64(time.Second))
	}
	return d
}

// Backing is the byte store under a simulated disk.
type Backing interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Size() int64
	Close() error
}

// Disk is one simulated storage device. All operations serialize on the
// device mutex — this is the point of the simulation, not a shortcut.
type Disk struct {
	name  string
	model Model

	mu      sync.Mutex
	backing Backing
	closed  bool

	// contents guards the stored bytes by range, shared for a read and
	// exclusive for a write: granule g is under stripe g % stripes, and a
	// range takes its granules' stripes in ascending stripe order, so two
	// acquirers cannot deadlock. Taken after mu or alone; a holder waits for
	// nothing: a second range is only ever tried.
	contents [stripes]sync.RWMutex

	reads, writes atomic.Int64 // lifetime operations, for Ops

	// counters is the registry of the machine the disk is attached to
	// (CountInto), which counts its operations too.
	counters *metrics.Registry
}

// detached counts the operations of the disks attached to no machine.
var detached metrics.Registry

// newDisk returns a disk over b, attached to no machine.
func newDisk(name string, model Model, b Backing) *Disk {
	return &Disk{name: name, model: model, backing: b, counters: &detached}
}

// The contents lock's geometry: 64 KiB granules, repeating every 4 MiB.
const granule, stripes = 64 << 10, 64

// ErrClosed is returned by operations on a closed disk.
var ErrClosed = errors.New("disk: closed")

// ErrOutOfRange is returned when an operation exceeds the device size.
var ErrOutOfRange = errors.New("disk: offset out of range")

// NewMem creates a memory-backed disk of the given size.
func NewMem(name string, size int64, model Model) *Disk {
	return newDisk(name, model, &memBacking{data: make([]byte, size)})
}

// NewFile creates (or truncates) a file-backed disk at path.
func NewFile(name, path string, size int64, model Model) (*Disk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", path, err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: truncate %s: %w", path, err)
	}
	return newDisk(name, model, &fileBacking{f: f, size: size}), nil
}

// CountInto attaches the disk to the machine whose registry is r: its
// operations count there as well. Call it before the first operation.
func (d *Disk) CountInto(r *metrics.Registry) { d.counters = r }

// Name returns the device name.
func (d *Disk) Name() string { return d.name }

// Size returns the device capacity in bytes.
func (d *Disk) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0
	}
	return d.backing.Size()
}

// ReadAt reads len(p) bytes at offset off, holding the device for the
// modeled duration.
func (d *Disk) ReadAt(p []byte, off int64) error { return d.op(p, off, len(p), false) }

// WriteAt writes len(p) bytes at offset off, holding the device for the
// modeled duration.
func (d *Disk) WriteAt(p []byte, off int64) error { return d.op(p, off, len(p), true) }

// Charge is ReadAt (if read) and WriteAt (if write) of n bytes at off for a
// caller that works on the Resident bytes themselves: it can wait or refuse,
// holds the device and counts each access exactly as ReadAt/WriteAt would,
// and moves nothing. It takes no contents lock; Lock does.
func (d *Disk) Charge(off int64, n int, read, write bool) (err error) {
	if read {
		err = d.op(nil, off, n, false)
	}
	if write && err == nil {
		err = d.op(nil, off, n, true)
	}
	return err
}

// Lock waits for the contents lock of [off, off+n), so its caller holds no
// other; with try it takes it only if all of it is free now — how a holder goes
// for a second range. Release ends the Lock of the same range and side; the
// holder must not call the disk before it.
func (d *Disk) Lock(off int64, n int, write, try bool) bool {
	return d.lockRange(off, n, stripes, write, try, false)
}

func (d *Disk) Release(off int64, n int, write bool) {
	d.lockRange(off, n, stripes, write, false, true)
}

// lockRange takes, or with unlock gives back, the contents lock of [off, off+n):
// its granules' stripes in ascending order — those that wrapped around to 0
// first — and no more than limit of them. With try it is all or nothing: at a
// stripe held against it, it gives back those it has and reports false.
func (d *Disk) lockRange(off int64, n, limit int, write, try, unlock bool) bool {
	first := off / granule
	count := int(min((off+int64(max(n, 1))-1)/granule-first+1, stripes))
	from := int(first % stripes)
	wrapped := max(from+count-stripes, 0)
	for k := range min(count, limit) {
		s := from + k - wrapped
		if k < wrapped {
			s = k
		}
		switch m := &d.contents[s]; {
		case unlock && write:
			m.Unlock()
		case unlock:
			m.RUnlock()
		case try && (write && !m.TryLock() || !write && !m.TryRLock()):
			d.lockRange(off, n, k, write, false, true)
			return false
		case !try && write:
			m.Lock()
		case !try:
			m.RLock()
		}
	}
	return true
}

// Resident returns the live bytes of a memory-backed disk — not a copy —
// or nil for a file-backed or closed one. Nothing is charged: access goes
// between Charge and Lock, and Release. They stay valid (but detached) after Close.
func (d *Disk) Resident() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if mem, ok := d.backing.(*memBacking); ok {
		return mem.data
	}
	return nil
}

// op is every operation: n bytes at off, read or written, moved through
// p under the contents lock unless p is nil (Charge: access in place).
func (d *Disk) op(p []byte, off int64, n int, write bool) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if off < 0 || off+int64(n) > d.backing.Size() {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+int64(n), d.backing.Size())
	}
	hold, ops, count := d.model.ReadTime(n), &d.reads, &d.counters.DiskReads
	if write {
		hold, ops, count = d.model.WriteTime(n), &d.writes, &d.counters.DiskWrites
	}
	if !d.model.IsZero() {
		simtime.Sleep(hold)
	}
	if p != nil {
		move := d.backing.ReadAt
		if write {
			move = d.backing.WriteAt
		}
		d.Lock(off, n, write, false)
		err = move(p, off)
		d.Release(off, n, write)
	}
	if err != nil {
		return err
	}
	ops.Add(1)
	count.Add(1)
	return nil
}

// Ops returns the lifetime (reads, writes) operation counts.
func (d *Disk) Ops() (reads, writes int64) { return d.reads.Load(), d.writes.Load() }

// Close releases the backing store. Further operations fail.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.backing.Close()
}

type memBacking struct {
	data []byte
}

func (b *memBacking) ReadAt(p []byte, off int64) error {
	copy(p, b.data[off:])
	return nil
}

func (b *memBacking) WriteAt(p []byte, off int64) error {
	copy(b.data[off:], p)
	return nil
}

func (b *memBacking) Size() int64 { return int64(len(b.data)) }

func (b *memBacking) Close() error {
	b.data = nil
	return nil
}

type fileBacking struct {
	f    *os.File
	size int64
}

func (b *fileBacking) ReadAt(p []byte, off int64) error {
	_, err := b.f.ReadAt(p, off)
	return err
}

func (b *fileBacking) WriteAt(p []byte, off int64) error {
	_, err := b.f.WriteAt(p, off)
	return err
}

func (b *fileBacking) Size() int64 { return b.size }

func (b *fileBacking) Close() error { return b.f.Close() }
