package rmem

import (
	"encoding/hex"
	"testing"

	"oopp/internal/wire"
)

// TestOpWireBytes holds the request of each method declared with codecs,
// and the constructor's argument, to the bytes the hand-written stubs
// before them sent, so that peers of either build interoperate.
func TestOpWireBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		put  func(e *wire.Encoder)
		want string
	}{
		{"new(1024)", func(e *wire.Encoder) { Float64BlockClass.PutArgs(e, 1024) }, "8010"},
		{"get(7)", func(e *wire.Encoder) { blockGet.PutArgs(e, 7) }, "0e"},
		{"set(7, 3.1415)", func(e *wire.Encoder) { blockSet.PutArgs(e, setArgs{7, 3.1415}) }, "0e6f1283c0ca210940"},
		{"sum()", func(e *wire.Encoder) { blockSum.PutArgs(e, struct{}{}) }, ""},
	} {
		e := wire.NewEncoder(0)
		c.put(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.want)
		}
	}
}
