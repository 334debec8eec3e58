package pfft

import (
	"encoding/hex"
	"testing"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// TestOpWireBytes holds the request of each method declared with codecs,
// and each class's constructor argument, to the bytes the hand-written
// stubs before them sent, so that peers of either build interoperate.
func TestOpWireBytes(t *testing.T) {
	refs := []rmi.Ref{{Machine: 0, Object: 3, Class: workerClass.Name()}, {Machine: 1, Object: 4, Class: workerClass.Name()}}
	for _, c := range []struct {
		name string
		put  func(e *wire.Encoder)
		want string
	}{
		{"new Worker(0, 8, 8, 4)", func(e *wire.Encoder) { workerClass.PutArgs(e, workerArgs{0, 8, 8, 4}) }, "00101008"},
		{"new Worker(1, 8, 8, 4)", func(e *wire.Encoder) { workerClass.PutArgs(e, workerArgs{1, 8, 8, 4}) }, "02101008"},
		{"new RefTable", func(e *wire.Encoder) {
			refTableClass.PutArgs(e, []rmi.Ref{{Machine: 0, Object: 2, Class: "pfft.Worker"}, {Machine: 1, Object: 4, Class: "pfft.Worker"}})
		}, "0200020b706666742e576f726b657202040b706666742e576f726b6572"},
		{"setGroup", func(e *wire.Encoder) { workerSetGroup.PutArgs(e, groupArgs{2, refs}) },
			"040200030b706666742e576f726b657202040b706666742e576f726b6572"},
		{"setGroupShallow", func(e *wire.Encoder) {
			workerSetGroupShallow.PutArgs(e, rmi.Ref{Machine: 0, Object: 9, Class: refTableClass.Name()})
		}, "00090d706666742e5265665461626c65"},
		{"transform(-1)", func(e *wire.Encoder) { workerTransform.PutArgs(e, -1) }, "01"},
		{"size()", func(e *wire.Encoder) { tableSize.PutArgs(e, struct{}{}) }, ""},
		{"getRef(1)", func(e *wire.Encoder) { tableGetRef.PutArgs(e, 1) }, "02"},
	} {
		e := wire.NewEncoder(0)
		c.put(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.want)
		}
	}
}
