package pagedev

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"testing"

	"oopp/internal/wire"
)

// FuzzCtorCodecs gives the two device classes' constructor codecs
// arbitrary bytes, as a construction request can carry them: Get never
// panics, an argument it accepts encodes back to the bytes it read, and
// the device that argument describes has a size in bytes that an int64
// holds. The seeds are each constructor form, and the two geometries
// whose size used to wrap.
func FuzzCtorCodecs(f *testing.F) {
	for _, seed := range []struct {
		array bool
		hex   string
	}{
		{false, "087061676566696c6514801001"},                          // "pagefile": 10 pages of 1024 B, private
		{true, "0006626c6f636b730804060801"},                           // fresh "blocks": 4 pages of 2x3x4, private
		{true, "02020112706167656465762e5061676544657669636514080810"}, // from m1#1: 10 pages of 4x4x8
	} {
		blob, err := hex.DecodeString(seed.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed.array, blob)
	}
	e := wire.NewEncoder(0)
	arrayDeviceCodec.Put(e, ArrayDeviceArgs{Name: "x", NumPages: 1, Dims: [3]int{1<<61 + 1, 1, 1}, DiskIndex: DiskPrivate})
	f.Add(true, e.Bytes())
	e = wire.NewEncoder(0)
	deviceCodec.Put(e, deviceArgs{"x", 1 << 33, 1 << 31, DiskPrivate})
	f.Add(false, e.Bytes())

	f.Fuzz(func(t *testing.T, array bool, blob []byte) {
		d, e := wire.NewDecoder(blob), wire.NewEncoder(0)
		var pages int
		var page [3]int
		elem := 1
		if array {
			a, err := arrayDeviceCodec.Get(d)
			if err != nil {
				return
			}
			arrayDeviceCodec.Put(e, a)
			pages, page, elem = a.NumPages, a.Dims, 8
		} else {
			a, err := deviceCodec.Get(d)
			if err != nil {
				return
			}
			deviceCodec.Put(e, a)
			pages, page = a.numPages, [3]int{a.pageSize, 1, 1}
		}
		if read := blob[:len(blob)-d.Remaining()]; !bytes.Equal(e.Bytes(), read) {
			t.Fatalf("accepted %x, which encodes back as %x", read, e.Bytes())
		}
		size := big.NewInt(int64(pages))
		for _, n := range append(page[:], elem) {
			size.Mul(size, big.NewInt(int64(n)))
		}
		if size.Sign() <= 0 || !size.IsInt64() {
			t.Fatalf("accepted %d pages of %v elements of %d B: %v bytes", pages, page, elem, size)
		}
	})
}
