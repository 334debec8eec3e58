package serve

import (
	"encoding/hex"
	"testing"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// TestOpWireBytes holds the request of each method declared with codecs to
// the bytes the hand-written stubs before them sent, so that peers of
// either build interoperate.
func TestOpWireBytes(t *testing.T) {
	peer := rmi.Ref{Machine: 2, Object: 7, Class: ClassWork}
	for _, c := range []struct {
		name string
		put  func(e *wire.Encoder)
		want string
	}{
		{"sleep(250)", func(e *wire.Encoder) { WorkSleep.PutArgs(e, 250) }, "f403"},
		{"spin(250)", func(e *wire.Encoder) { WorkSpin.PutArgs(e, 250) }, "f403"},
		{"sleep, as SleepArgs", func(e *wire.Encoder) { SleepArgs(250)(e) }, "f403"},
		{"wait()", func(e *wire.Encoder) { WorkWait.PutArgs(e, struct{}{}) }, ""},
		{"bind", func(e *wire.Encoder) { WorkBind.PutArgs(e, peer) }, "04070a73657276652e576f726b"},
		{"open()", func(e *wire.Encoder) { WorkOpen.PutArgs(e, struct{}{}) }, ""},
	} {
		e := wire.NewEncoder(0)
		c.put(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.want)
		}
	}
}
