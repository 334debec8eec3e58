package exp

import (
	"encoding/hex"
	"testing"

	"oopp/internal/wire"
)

// TestOpWireBytes holds the request of each method declared with codecs to
// the bytes the hand-written stubs before them sent, so that peers of
// either build interoperate.
func TestOpWireBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		put  func(e *wire.Encoder)
		want string
	}{
		{"noop()", func(e *wire.Encoder) { echoNoop.PutArgs(e, struct{}{}) }, ""},
		{"one()", func(e *wire.Encoder) { echoOne.PutArgs(e, struct{}{}) }, ""},
		{"workSerial(100)", func(e *wire.Encoder) { workSerial.PutArgs(e, 100) }, "c801"},
		{"workConcurrent(100)", func(e *wire.Encoder) { workConcurrent.PutArgs(e, 100) }, "c801"},
	} {
		e := wire.NewEncoder(0)
		c.put(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.want)
		}
	}
}
