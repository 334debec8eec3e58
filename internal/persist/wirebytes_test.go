package persist

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
	const addr = "oopp://data/set/x"
	dev := rmi.Ref{Machine: 1, Object: 42, Class: "pagedev.PageDevice"}
	for _, c := range []struct {
		name string
		put  func(e *wire.Encoder)
		want string
	}{
		{"bind", func(e *wire.Encoder) { nsBind.PutArgs(e, bindArgs{addr, dev}) },
			"116f6f70703a2f2f646174612f7365742f78022a12706167656465762e50616765446576696365"},
		{"resolve", func(e *wire.Encoder) { nsResolve.PutArgs(e, addr) }, "116f6f70703a2f2f646174612f7365742f78"},
		{"unbind", func(e *wire.Encoder) { nsUnbind.PutArgs(e, addr) }, "116f6f70703a2f2f646174612f7365742f78"},
		{"passivate", func(e *wire.Encoder) { storePassivate.PutArgs(e, passivateArgs{dev, "blob"}) },
			"022a12706167656465762e5061676544657669636504626c6f62"},
		{"put", func(e *wire.Encoder) { storePut.PutArgs(e, putArgs{"blob", "core.ArrayMeta", []byte{1, 2, 3}}) },
			"04626c6f620e636f72652e41727261794d65746103010203"},
		{"activate", func(e *wire.Encoder) { storeActivate.PutArgs(e, "blob") }, "04626c6f62"},
		{"remove", func(e *wire.Encoder) { storeRemove.PutArgs(e, "blob") }, "04626c6f62"},
	} {
		e := wire.NewEncoder(0)
		c.put(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.want)
		}
	}
}
