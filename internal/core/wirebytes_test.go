package core

import (
	"encoding/hex"
	"testing"

	"oopp/internal/wire"
)

// TestOpWireBytes holds the descriptor class's constructor argument, and
// describe's request, to the bytes the hand-written stubs before them
// sent, so that peers of either build interoperate: the descriptor of an
// 8³ array in 4³ pages striped over two devices.
func TestOpWireBytes(t *testing.T) {
	pm, err := NewStripedMap(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		put  func(e *wire.Encoder)
		want string
	}{
		{"new ArrayMeta", func(e *wire.Encoder) {
			arrayMetaClass.PutArgs(e, &arrayMeta{n: [3]int{8, 8, 8}, p: [3]int{4, 4, 4}, pm: pm})
		}, "101010080808077374726970656404080208010000010002010004010006010200010202010204010206"},
		{"describe()", func(e *wire.Encoder) { metaDescribe.PutArgs(e, struct{}{}) }, ""},
	} {
		e := wire.NewEncoder(0)
		c.put(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.want)
		}
	}
}
