package disk

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestMemReadWrite(t *testing.T) {
	d := NewMem("d0", 1024, Model{})
	defer d.Close()

	data := []byte("hello disk")
	if err := d.WriteAt(data, 100); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 100); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
	r, w := d.Ops()
	if r != 1 || w != 1 {
		t.Fatalf("ops = (%d,%d), want (1,1)", r, w)
	}
	if d.Size() != 1024 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.Name() != "d0" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestFileBacking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk0.img")
	d, err := NewFile("f0", path, 4096, Model{})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	defer d.Close()

	data := bytes.Repeat([]byte{0xAB}, 512)
	if err := d.WriteAt(data, 1024); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, 512)
	if err := d.ReadAt(got, 1024); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file-backed read mismatch")
	}
}

func TestOutOfRange(t *testing.T) {
	d := NewMem("d0", 100, Model{})
	defer d.Close()
	buf := make([]byte, 10)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"read past end", func() error { return d.ReadAt(buf, 95) }},
		{"read negative", func() error { return d.ReadAt(buf, -1) }},
		{"write past end", func() error { return d.WriteAt(buf, 91) }},
		{"write negative", func() error { return d.WriteAt(buf, -5) }},
	}
	for _, c := range cases {
		if err := c.fn(); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%s: err = %v, want ErrOutOfRange", c.name, err)
		}
	}
	// Boundary success: exactly at the end.
	if err := d.WriteAt(buf, 90); err != nil {
		t.Errorf("write at boundary: %v", err)
	}
}

func TestClosed(t *testing.T) {
	d := NewMem("d0", 100, Model{})
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	buf := make([]byte, 1)
	if err := d.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if err := d.WriteAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	if d.Size() != 0 {
		t.Errorf("size after close: %d", d.Size())
	}
}

func TestModelTimes(t *testing.T) {
	m := Model{Seek: time.Millisecond, ReadBandwidth: 1e6, WriteBandwidth: 2e6}
	if got := m.ReadTime(1e6); got != time.Second+time.Millisecond {
		t.Errorf("ReadTime = %v", got)
	}
	if got := m.WriteTime(1e6); got != 500*time.Millisecond+time.Millisecond {
		t.Errorf("WriteTime = %v", got)
	}
	if !(Model{}).IsZero() {
		t.Error("zero model not zero")
	}
	if m.IsZero() {
		t.Error("non-zero model reported zero")
	}
}

// TestDeviceSerialization verifies the core property: one disk serializes
// its requests, so K concurrent ops on one device take ~K times as long.
func TestDeviceSerialization(t *testing.T) {
	const seek = 5 * time.Millisecond
	d := NewMem("d0", 4096, Model{Seek: seek})
	defer d.Close()

	const k = 4
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 16)
			if err := d.ReadAt(buf, int64(i*16)); err != nil {
				t.Errorf("read: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < k*seek {
		t.Errorf("4 concurrent reads finished in %v; device did not serialize (want >= %v)", elapsed, k*seek)
	}
}

// TestDeviceParallelism verifies distinct disks do NOT serialize against
// each other — the property behind the paper's parallel-I/O claim (§4).
func TestDeviceParallelism(t *testing.T) {
	const seek = 30 * time.Millisecond
	const k = 4
	disks := make([]*Disk, k)
	for i := range disks {
		disks[i] = NewMem("d", 4096, Model{Seek: seek})
		defer disks[i].Close()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, d := range disks {
		wg.Add(1)
		go func(d *Disk) {
			defer wg.Done()
			buf := make([]byte, 16)
			if err := d.ReadAt(buf, 0); err != nil {
				t.Errorf("read: %v", err)
			}
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// All four should overlap: clearly under the serialized 4*seek, with
	// headroom for scheduler noise when test packages run in parallel.
	if elapsed >= time.Duration(k)*seek {
		t.Errorf("4 parallel disks took %v; serialized would be %v", elapsed, time.Duration(k)*seek)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	d := NewMem("d0", 1<<16, Model{})
	defer d.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := []byte{byte(i)}
			for j := 0; j < 100; j++ {
				off := int64(i*100 + j)
				if err := d.WriteAt(buf, off); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got := make([]byte, 1)
				if err := d.ReadAt(got, off); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if got[0] != byte(i) {
					t.Errorf("read back %d, want %d", got[0], i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	r, w := d.Ops()
	if r != 800 || w != 800 {
		t.Errorf("ops = (%d,%d), want (800,800)", r, w)
	}
}

// TestAcquireIsTheOperationInPlace: access to the resident bytes between
// Acquire and Release is refused, counted and timed as ReadAt/WriteAt of
// the range would be, and excludes them — and another Acquire — while a
// writer holds the range. The exclusion is by byte range: disjoint ranges
// are held exclusively at once, overlapping ones wait, a range is locked
// whole however many granules it crosses, and acquirers of many stripes
// cannot deadlock whatever their addresses.
func TestAcquireIsTheOperationInPlace(t *testing.T) {
	const seek = 2 * time.Millisecond
	d := NewMem("d0", 64, Model{Seek: seek})
	mem := d.Resident()
	if len(mem) != 64 {
		t.Fatalf("resident bytes: %d, want 64", len(mem))
	}
	if err := chargeAndLock(d, 60, 8, true, true); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("acquire past the end: %v", err)
	}
	t0 := time.Now()
	if err := chargeAndLock(d, 8, 8, true, true); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < 2*seek {
		t.Errorf("a read and a write in place held the disk %v, want ≥ %v", took, 2*seek)
	}
	if r, w := d.Ops(); r != 1 || w != 1 {
		t.Errorf("ops = (%d,%d), want (1,1)", r, w)
	}
	// A copying reader and an in-place reader both wait for the writer.
	got := make([]byte, 8)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := d.ReadAt(got, 8); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := chargeAndLock(d, 8, 8, true, false); err != nil {
			t.Error(err)
			return
		}
		defer d.Release(8, 8, false)
		if !bytes.Equal(mem[8:16], []byte("whole!!!")) {
			t.Errorf("in-place reader saw %q", mem[8:16])
		}
	}()
	copy(mem[8:], "whol")
	time.Sleep(5 * seek)
	copy(mem[12:], "e!!!")
	d.Release(8, 8, true)
	wg.Wait()
	if string(got) != "whole!!!" {
		t.Errorf("copying reader saw %q", got)
	}
	if r, w := d.Ops(); r != 3 || w != 1 {
		t.Errorf("ops = (%d,%d), want (3,1)", r, w)
	}
	d.Close()
	if err := chargeAndLock(d, 0, 8, true, false); !errors.Is(err, ErrClosed) {
		t.Errorf("acquire after close: %v", err)
	}
	f, err := NewFile("f0", filepath.Join(t.TempDir(), "f0.img"), 64, Model{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Resident() != nil {
		t.Error("a file-backed disk has resident bytes")
	}

	// Twice the lock table's period, so granules 64.. share stripes with 0...
	const size = 2 * stripes * granule
	big := NewMem("d1", size, Model{})
	defer big.Close()
	type held struct {
		off   int64
		n     int
		write bool
		got   chan struct{}
	}
	acquire := func(off int64, n int, write bool) held {
		h := held{off, n, write, make(chan struct{})}
		go func() {
			if err := chargeAndLock(big, off, n, !write, write); err != nil {
				t.Error(err)
			}
			close(h.got)
		}()
		return h
	}
	holds := func(h held, within time.Duration) bool {
		select {
		case <-h.got:
			return true
		case <-time.After(within):
			return false
		}
	}
	release := func(what string, hs ...held) {
		t.Helper()
		for _, h := range hs {
			if !holds(h, 10*time.Second) {
				t.Fatalf("%s: [%d,%d) never acquired", what, h.off, h.off+int64(h.n))
			}
			big.Release(h.off, h.n, h.write)
		}
	}
	// Disjoint ranges, each exclusive, all at once: neighbouring pages, and
	// one a whole period away from the first but one granule on.
	release("disjoint writers", acquire(0, granule, true), acquire(granule, granule, true), acquire(size/2+2*granule, granule, true))
	// A writer of a range that starts and ends mid-granule excludes a
	// reader of any byte of it, first and last included, until it lets go.
	for _, w := range []held{
		{off: granule - 4, n: 8},                      // across one boundary
		{off: granule / 2, n: 3 * granule},            // across three
		{off: size/2 - granule - 1, n: 2*granule + 2}, // across the table's wrap
		{off: 0, n: size},                             // the whole disk
	} {
		what := fmt.Sprintf("writer of [%d,%d)", w.off, w.off+int64(w.n))
		release(what, acquire(w.off, w.n, true))
		w = acquire(w.off, w.n, true)
		if !holds(w, 10*time.Second) {
			t.Fatalf("%s never acquired", what)
		}
		readers := []held{acquire(w.off, 1, false), acquire(w.off+int64(w.n)/2, 1, false), acquire(w.off+int64(w.n)-1, 1, false)}
		for _, r := range readers {
			if holds(r, 10*time.Millisecond) {
				t.Errorf("%s: a reader got byte %d of it", what, r.off)
			}
		}
		big.Release(w.off, w.n, true)
		release(what+", released: readers", readers...)
	}
	// Two acquirers of many stripes each, one of which meets the table's
	// wrap: in address order it would take stripes 62, 63, 0, 1 while the
	// other takes 0..63, and each would end up waiting for the other.
	var both sync.WaitGroup
	for _, r := range []held{{off: (stripes - 2) * granule, n: 4 * granule}, {off: 0, n: stripes * granule}} {
		both.Add(1)
		go func(r held) {
			defer both.Done()
			for i := 0; i < 2000; i++ {
				if err := chargeAndLock(big, r.off, r.n, false, true); err != nil {
					t.Error(err)
					return
				}
				big.Release(r.off, r.n, true)
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { both.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("two multi-stripe acquirers deadlocked")
	}
}

// TestTryLockIsAllOrNothing: a caller that holds one range may only try a
// second, and a try that misses must leave nothing behind. A range of five
// granules whose third stripe is write-held is refused with its first two
// stripes free again — a writer gets each of them at once — and is had
// whole once the holder lets go; the same for a range that crosses the
// lock table's wrap (stripes 62, 63, 0, 1, 2, taken 0, 1, 2, 62, 63), and
// for a reader against a reader, which share. The charge is the half that
// can refuse, and it refuses before any lock: a range past the end, or a
// closed disk, leaves every stripe free.
func TestTryLockIsAllOrNothing(t *testing.T) {
	const size = 2 * stripes * granule
	d := NewMem("d0", size, Model{})
	free := func(what string, off int64) {
		t.Helper()
		if !d.Lock(off, 1, true, true) {
			t.Fatalf("%s: the stripe of byte %d is still held", what, off)
		}
		d.Release(off, 1, true)
	}
	for _, first := range []int64{4, stripes - 2, stripes + 7} {
		off, n := first*granule+100, 4*granule // five granules: it starts and ends mid-granule
		third := (first + 2) * granule
		what := fmt.Sprintf("granules %d..%d", first, first+4)
		for _, write := range []bool{true, false} {
			d.Lock(third, 1, true, false)
			if d.Lock(off, n, write, true) {
				t.Fatalf("%s, write=%v: had with its third stripe write-held", what, write)
			}
			for g := first; g < first+5; g++ {
				if g != first+2 {
					free(what+" after a miss", g*granule)
				}
			}
			d.Release(third, 1, true)
			if !d.Lock(off, n, write, true) {
				t.Fatalf("%s, write=%v: refused with every stripe free", what, write)
			}
			// Held whole: no byte of it can be written, first and last included.
			for _, at := range []int64{off, third, off + int64(n) - 1} {
				if d.Lock(at, 1, true, true) {
					t.Errorf("%s, write=%v: byte %d was not held", what, write, at)
				}
				if d.Lock(at, 1, false, true) == write {
					t.Errorf("%s, write=%v: a reader of byte %d got %v", what, write, at, !write)
				}
				if !write {
					d.Release(at, 1, false)
				}
			}
			d.Release(off, n, write)
			for g := first; g < first+5; g++ {
				free(what+" after release", g*granule)
			}
		}
	}
	if err := d.Charge(size-8, 16, true, true); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("charge past the end: %v", err)
	}
	d.Close()
	if err := d.Charge(0, 8, true, false); !errors.Is(err, ErrClosed) {
		t.Errorf("charge after close: %v", err)
	}
	if err := chargeAndLock(d, 0, 8, true, true); !errors.Is(err, ErrClosed) {
		t.Errorf("acquire after close: %v", err)
	}
	if r, w := d.Ops(); r != 0 || w != 0 {
		t.Errorf("refused charges counted: ops = (%d,%d)", r, w)
	}
	for g := int64(0); g < stripes; g++ {
		free("after refused charges", g*granule)
	}
}

// chargeAndLock charges a range of d for a read and/or a write and locks it —
// an in-place access, as pagedev makes one.
func chargeAndLock(d *Disk, off int64, n int, read, write bool) error {
	err := d.Charge(off, n, read, write)
	if err == nil {
		d.Lock(off, n, write, false)
	}
	return err
}
