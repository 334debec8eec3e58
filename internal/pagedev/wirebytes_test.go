package pagedev

import (
	"encoding/hex"
	"testing"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// TestOpWireBytes holds the request of each method declared with codecs,
// and each class's constructor argument, to the bytes the hand-written
// stubs before them sent, so that peers of either build interoperate;
// stats's reply too, whose codec is the package's own.
func TestOpWireBytes(t *testing.T) {
	store := rmi.Ref{Machine: 2, Object: 5, Class: "persist.Store"}
	src := rmi.Ref{Machine: 1, Object: 1, Class: "pagedev.PageDevice"}
	for _, c := range []struct {
		name string
		put  func(e *wire.Encoder)
		want string
	}{
		{"new PageDevice", func(e *wire.Encoder) {
			PageDeviceClass.PutArgs(e, deviceArgs{"pagefile", 10, 1024, DiskPrivate})
		}, "087061676566696c6514801001"},
		{"new ArrayPageDevice, fresh", func(e *wire.Encoder) {
			ArrayPageDeviceClass.PutArgs(e, ArrayDeviceArgs{Name: "blocks", NumPages: 4, Dims: [3]int{2, 3, 4}, DiskIndex: DiskPrivate})
		}, "0006626c6f636b730804060801"},
		{"new ArrayPageDevice, from a process", func(e *wire.Encoder) {
			ArrayPageDeviceClass.PutArgs(e, ArrayDeviceArgs{FromProcess: true, Src: src, NumPages: 10, Dims: [3]int{4, 4, 8}})
		}, "02020112706167656465762e5061676544657669636514080810"},
		{"numPages()", func(e *wire.Encoder) { devNumPages.PutArgs(e, struct{}{}) }, ""},
		{"name()", func(e *wire.Encoder) { devName.PutArgs(e, struct{}{}) }, ""},
		{"stats()", func(e *wire.Encoder) { devStats.PutArgs(e, struct{}{}) }, ""},
		{"stats reply", func(e *wire.Encoder) { statsCodec.Put(e, deviceStats{12, 300}) }, "18d804"},
		{"checkpointTo", func(e *wire.Encoder) {
			devCheckpointTo.PutArgs(e, checkpointArgs{store, "ckpt/dev/0", ArrayPageDeviceClass.Name()})
		}, "04050d706572736973742e53746f72650a636b70742f6465762f3017706167656465762e417272617950616765446576696365"},
		{"fencePages", func(e *wire.Encoder) { devFencePages.PutArgs(e, []int{1, 5}) }, "04020a"},
		{"unfencePages", func(e *wire.Encoder) { devUnfencePages.PutArgs(e, unfenceArgs{true, []int{1, 5}}) }, "0104020a"},
		{"adoptPages", func(e *wire.Encoder) { devAdoptPages.PutArgs(e, adoptArgs{2, 65536}) }, "04808008"},
	} {
		e := wire.NewEncoder(0)
		c.put(e)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%s encodes as %s, want %s", c.name, got, c.want)
		}
	}
}
