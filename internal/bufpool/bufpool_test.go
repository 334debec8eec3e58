package bufpool

import (
	"sync"
	"testing"
	"unsafe"
)

// drain empties every class of the large tier so tests see deterministic
// pool state there. The small tier has no state a test could count.
func drain() {
	for i := len(small); i < len(classes); i++ {
		for {
			select {
			case <-classes[i]:
			default:
			}
			if len(classes[i]) == 0 {
				break
			}
		}
	}
}

func TestGetCapacityClasses(t *testing.T) {
	drain()
	for _, n := range []int{0, 1, 64, 65, 1000, 4096, 100_000, 4 << 20} {
		b := Get(n)
		if len(b) != 0 {
			t.Fatalf("Get(%d): len %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("Get(%d): cap %d too small", n, cap(b))
		}
	}
	// Oversized requests fall through to exact make.
	huge := Get(MaxPooled + 1)
	if cap(huge) != MaxPooled+1 {
		t.Fatalf("oversized Get: cap %d, want exact %d", cap(huge), MaxPooled+1)
	}
}

func TestPutGetRecycles(t *testing.T) {
	drain()
	b := Get(1 << 10)
	b = append(b, make([]byte, 700)...)
	Put(b)
	b2 := Get(1 << 10)
	if cap(b2) != cap(b) {
		t.Fatalf("recycled buffer not returned: cap %d, want %d", cap(b2), cap(b))
	}
	if len(b2) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(b2))
	}
}

func TestPutFilesGrownBufferUnderLargerClass(t *testing.T) {
	drain()
	// A buffer grown to 1 MiB must come back from the 1 MiB class, not the
	// class it was born in — this is what lets a bulk reply reuse the bulk
	// frame the previous decode released.
	b := make([]byte, 0, 1<<20)
	Put(b)
	got := Get(600_000)
	if cap(got) != 1<<20 {
		t.Fatalf("grown buffer not recycled by capacity: cap %d", cap(got))
	}
}

func TestPutDropsJunk(t *testing.T) {
	drain()
	Put(nil)
	Put(make([]byte, 0, 8))           // under smallest class
	Put(make([]byte, 0, 3*MaxPooled)) // over the retention ceiling
	if b := Get(64); cap(b) != classSize(0) {
		t.Fatalf("junk entered the pool: cap %d", cap(b))
	}
}

func TestGetLen(t *testing.T) {
	b := GetLen(100)
	if len(b) != 100 || cap(b) < 100 {
		t.Fatalf("GetLen(100): len %d cap %d", len(b), cap(b))
	}
}

// TestClassArithmetic: the bit-scan class lookup agrees with a search of
// the class sizes at every boundary, for requests (smallest class that
// fits) and for returned capacities (largest class the buffer can serve).
func TestClassArithmetic(t *testing.T) {
	for ci := range classes {
		size := classSize(ci)
		for _, n := range []int{size - 1, size, size + 1} {
			want := -1
			for i := range classes {
				if n <= classSize(i) {
					want = i
					break
				}
			}
			if got := classFor(n); got != want {
				t.Errorf("classFor(%d) = %d, want %d", n, got, want)
			}
		}
	}
	if got := classFor(0); got != 0 {
		t.Errorf("classFor(0) = %d, want 0", got)
	}
	drain()
	for ci := len(small); ci < len(classes); ci++ {
		for _, c := range []int{classSize(ci), 2*classSize(ci) - 1} {
			Put(make([]byte, 0, c))
			if len(classes[ci]) != 1 {
				t.Fatalf("a buffer of capacity %d was not filed under class %d (%d B)", c, ci, classSize(ci))
			}
			<-classes[ci]
		}
	}
}

// pageFrame is the frame of one 32^3 float64 page: 256 KiB of payload
// behind a call header. window is rmi.DefaultWindow, which this package
// cannot import.
const (
	pageFrame = 32*32*32*8 + 40
	window    = 32
)

// TestPageFrameWindowRecycles: a split loop's window of page frames, taken
// together and returned together, is served from the pool the second time
// round — nothing allocated, nothing dropped.
func TestPageFrameWindowRecycles(t *testing.T) {
	drain()
	ci := classFor(pageFrame)
	var held [window][]byte
	cycle := func() {
		for i := range held {
			held[i] = GetLen(pageFrame)
		}
		for i := range held {
			Put(held[i])
		}
	}
	cycle()
	if got := len(classes[ci]); got != window {
		t.Fatalf("%d of %d returned page frames retained", got, window)
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("a recycled window of page frames allocates %.1f times", allocs)
	}
	if got := len(classes[ci]); got != window {
		t.Fatalf("%d of %d page frames retained after recycling", got, window)
	}
}

// TestRetentionBounded: a class of the large tier keeps no more than its
// bound however many buffers come back, and the bounds add up to no more
// than the idle worst case the package doc states.
func TestRetentionBounded(t *testing.T) {
	drain()
	ci := classFor(pageFrame)
	for i := 0; i < retained(ci)+10; i++ {
		Put(make([]byte, 0, classSize(ci)))
	}
	if got := len(classes[ci]); got != retained(ci) {
		t.Fatalf("class retains %d buffers, bound is %d", got, retained(ci))
	}
	drain()
	const documented = 88 << 20
	total := 0
	for i := len(small); i < len(classes); i++ {
		if b := cap(classes[i]) * classSize(i); b > classBytes {
			t.Errorf("class %d may retain %d bytes, over the per-class bound %d", i, b, classBytes)
		} else {
			total += b
		}
	}
	if total > documented {
		t.Fatalf("a full idle large tier holds %d bytes, documented as at most %d", total, documented)
	}
}

func TestGetPutAllocationFree(t *testing.T) {
	drain()
	Put(make([]byte, 0, 4<<10))
	allocs := testing.AllocsPerRun(100, func() {
		b := Get(4 << 10)
		Put(b)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put cycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestSmallTierRecycles: in the per-processor tier a buffer put back is
// the one the next Get of its class on the same goroutine returns, and
// taking and returning a buffer of any class allocates nothing. A buffer
// of another capacity is not taken back at all. A sync.Pool keeps what is
// put on the processor that put it, so the check is retried should the
// goroutine move between the two calls.
func TestSmallTierRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a sync.Pool drops what is put at random")
	}
	for ci := range small {
		size := classSize(ci)
		recycled := func(c int) bool {
			b := make([]byte, 0, c)
			Put(b)
			got := Get(size)
			return unsafe.SliceData(got) == unsafe.SliceData(b) && cap(got) == size && len(got) == 0
		}
		if !recycled(size) && !recycled(size) && !recycled(size) {
			t.Errorf("a buffer of class %d (%d B) put back was not the next Get", ci, size)
		}
		if recycled(2*size - 1) {
			t.Errorf("a buffer of capacity %d was taken into class %d (%d B)", 2*size-1, ci, size)
		}
		Put(Get(size))
		if allocs := testing.AllocsPerRun(100, func() { Put(Get(size)) }); allocs != 0 {
			t.Errorf("Get/Put of class %d (%d B) allocates %.1f times per op, want 0", ci, size, allocs)
		}
	}
}

func TestConcurrentGetPut(t *testing.T) {
	drain()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := 64 << (uint(seed+i) % 10)
				b := GetLen(n)
				b[0] = byte(i)
				b[n-1] = byte(i)
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkGetPutParallel takes and returns one buffer per op on every
// processor at once: 64 B is the small tier, a call's frame; 256 KiB the
// large tier, a page's payload.
func BenchmarkGetPutParallel(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"256KiB", 256 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			Put(Get(size.n))
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					Put(Get(size.n))
				}
			})
		})
	}
}
