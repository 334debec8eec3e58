package pagedev

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"oopp/internal/kernel"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// batchFrame encodes an applyPipelineK request of p's stages with params —
// resolved where they resolve, and sent as named where not, so a frame may
// name what no registry holds — over batch b, then lets edit damage the
// bytes.
func batchFrame(p kernel.Pipeline, params [][]float64, b Batch, edit func([]byte) []byte) []byte {
	c := make(kernel.Chain, len(p.Stages))
	for i, s := range p.Stages {
		c[i], _ = kernel.Resolve(s, params[i])
	}
	e := wire.NewEncoder(64)
	EncodeApplyPipelineK(e, c, b)
	frame := append([]byte(nil), e.Bytes()...)
	if edit != nil {
		frame = edit(frame)
	}
	return frame
}

// appendInt drops the frame's last n bytes and appends v as a varint.
func appendInt(n int, v int) func([]byte) []byte {
	return func(b []byte) []byte {
		return binary.AppendVarint(slices.Clip(b[:len(b)-n]), int64(v))
	}
}

// decodeCase is one frame for the kernel-batch decoder: ok says whether
// it must decode; is, when set, is the error a refusal must match.
type decodeCase struct {
	name  string
	frame []byte
	ok    bool
	is    error
}

var decodeCases = func() []decodeCase {
	peers := []rmi.Ref{{Machine: 1, Object: 7, Class: ClassArrayPageDevice}}
	box := SubBox{Lo: [3]int{0, 1, 0}, Dim: [3]int{2, 1, 2}}
	operand := func(peer int) Batch {
		return Batch{Peers: peers, Regions: []PipeRegion{{Index: 1, Box: box, Fold: true, Peers: []PipePeer{{Peer: peer, Index: 3}}}}}
	}
	one := func(st kernel.Stage) kernel.Pipeline { return kernel.Pipeline{Stages: []kernel.Stage{st}} }
	scale, sum := one(kernel.MapStage(kernel.Scale)), one(kernel.ReduceStage(kernel.Sum))
	axpy, dot := one(kernel.BinaryStage(kernel.Axpy)), one(kernel.BinaryReduceStage(kernel.Dot))
	plain := Batch{Regions: []PipeRegion{{Index: 1, Box: box, Fold: true}}}
	paired, unlisted := operand(0), operand(0)
	unlisted.Peers = nil
	return []decodeCase{
		{"map", batchFrame(scale, [][]float64{{2}}, plain, nil), true, nil},
		{"reduce", batchFrame(sum, [][]float64{nil}, plain, nil), true, nil},
		{"binary", batchFrame(axpy, [][]float64{{2}}, paired, nil), true, nil},
		{"binary reduce", batchFrame(dot, [][]float64{nil}, paired, nil), true, nil},
		{"no regions", batchFrame(scale, [][]float64{{2}}, Batch{}, nil), true, nil},
		{"binary, no regions", batchFrame(axpy, [][]float64{{2}}, Batch{}, nil), true, nil},
		{"empty frame", nil, false, nil},
		{"empty chain", batchFrame(kernel.Pipeline{}, nil, plain, nil), false, nil},
		{"truncated stage", batchFrame(scale, [][]float64{{2}}, plain, func(b []byte) []byte { return b[:4] }), false, nil},
		{"truncated region", batchFrame(scale, [][]float64{{2}}, plain, func(b []byte) []byte { return b[:len(b)-3] }), false, nil},
		{"stage count 1<<40", appendInt(0, 1<<40)(nil), false, wire.ErrCorrupt},
		{"region count 1<<40", batchFrame(scale, [][]float64{{2}}, Batch{}, appendInt(1, 1<<40)), false, wire.ErrCorrupt},
		{"negative region count", batchFrame(scale, [][]float64{{2}}, Batch{}, appendInt(1, -1)), false, wire.ErrCorrupt},
		{"peer count 1<<40", batchFrame(axpy, [][]float64{{2}}, Batch{}, appendInt(2, 1<<40)), false, wire.ErrCorrupt},
		{"bad kind byte", batchFrame(one(kernel.Stage{Kind: 9, Name: kernel.Scale}), [][]float64{{2}}, plain, nil), false, nil},
		{"unknown kernel", batchFrame(one(kernel.MapStage("no.such.kernel")), [][]float64{nil}, plain, nil), false, nil},
		{"kernel of another kind", batchFrame(one(kernel.ReduceStage(kernel.Scale)), [][]float64{nil}, plain, nil), false, nil},
		{"missing parameter", batchFrame(scale, [][]float64{nil}, plain, nil), false, nil},
		{"box outside page", batchFrame(scale, [][]float64{{2}}, Batch{Regions: []PipeRegion{{Box: SubBox{Dim: [3]int{3, 1, 1}}}}}, nil), false, nil},
		{"box wraps int", batchFrame(scale, [][]float64{{2}}, Batch{Regions: []PipeRegion{{Box: SubBox{Lo: [3]int{math.MaxInt, 0, 0}, Dim: [3]int{1, 1, 1}}}}}, nil), false, nil},
		{"peer missing", batchFrame(axpy, [][]float64{{2}}, plain, nil), false, nil},
		{"peer unasked for", batchFrame(scale, [][]float64{{2}}, paired, nil), false, nil},
		{"peer past the list", batchFrame(axpy, [][]float64{{2}}, operand(1), nil), false, wire.ErrCorrupt},
		{"negative peer", batchFrame(dot, [][]float64{nil}, operand(-1), nil), false, wire.ErrCorrupt},
		{"binary, empty peer list", batchFrame(axpy, [][]float64{{2}}, unlisted, nil), false, wire.ErrCorrupt},
		{"binary reduce, empty peer list", batchFrame(dot, [][]float64{nil}, unlisted, nil), false, wire.ErrCorrupt},
	}
}()

// The one kernel-batch decoder: every stage kind round-trips, and every
// malformed frame — truncated, oversized or negative counts, bad kind
// byte, unknown kernel, wrong arity, box outside the page, peer count
// not matching the chain's two-operand stages, an operand naming a peer
// past the batch's peer list or naming one in an empty list — is refused
// before any page could be touched; the oversized counts and the peer
// positions fail as corrupt frames, not as allocations or lookups.
func TestKernelBatchDecode(t *testing.T) {
	for _, tc := range decodeCases {
		b, err := decodeKernelBatch(wire.NewDecoder(tc.frame), [3]int{2, 2, 2})
		if (err == nil) != tc.ok || (tc.is != nil && !errors.Is(err, tc.is)) {
			t.Errorf("%s: decode error = %v, want ok=%v matching %v", tc.name, err, tc.ok, tc.is)
		}
		if err == nil && (len(b.chain) != 1 || len(b.regions) > 1) {
			t.Errorf("%s: decoded %d stages, %d regions", tc.name, len(b.chain), len(b.regions))
		}
	}
}

// FuzzKernelBatchDecode: the decoder reads bytes off a socket, so no
// input may panic it or make it allocate past the frame, and whatever
// it accepts must be internally consistent — the region walk indexes
// Peers by the chain's two-operand stage count, and the peer list by each
// operand's position.
func FuzzKernelBatchDecode(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add(tc.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := decodeKernelBatch(wire.NewDecoder(frame), [3]int{2, 2, 2})
		if err != nil {
			return
		}
		if len(b.chain) == 0 || b.chain.Operands() > len(b.chain) {
			t.Fatalf("accepted an inconsistent chain: %+v", b)
		}
		if len(b.regions) > len(frame)/minRegion {
			t.Fatalf("%d regions decoded from %d bytes", len(b.regions), len(frame))
		}
		for _, r := range b.regions {
			if len(r.Peers) != b.chain.Operands() {
				t.Fatalf("region carries %d peers for %d two-operand stages", len(r.Peers), b.chain.Operands())
			}
			for _, pe := range r.Peers {
				if pe.Peer < 0 || pe.Peer >= len(b.peers) {
					t.Fatalf("accepted peer %d of a %d-peer list", pe.Peer, len(b.peers))
				}
			}
			for x, n := range [3]int{2, 2, 2} {
				if r.Box.Lo[x] < 0 || r.Box.Lo[x] > n || r.Box.Dim[x] < 0 || r.Box.Dim[x] > n-r.Box.Lo[x] {
					t.Fatalf("accepted box %+v outside a 2x2x2 page", r.Box)
				}
			}
		}
	})
}

// TestPipelineReplyRefusesWrongWidth: a reply is read off a socket too. A
// partial whose accumulator is not its stage's width is refused as a
// corrupt frame and folds nothing — taken as it came, a one-float minmax
// partial became the accumulator Array.MinMax reads two floats of.
func TestPipelineReplyRefusesWrongWidth(t *testing.T) {
	c, err := kernel.Pipeline{Stages: []kernel.Stage{kernel.ReduceStage(kernel.MinMax)}}.Resolve([][]float64{nil})
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range [][]float64{{1}, {1, 2, 3}} {
		e := wire.NewEncoder(32)
		e.PutVarint(4)
		e.PutVarint(4)
		e.PutFloat64s(acc)
		totals := c.Identity()
		if _, err := DecodePipelineReply(wire.NewDecoder(e.Bytes()), c, totals); !errors.Is(err, wire.ErrCorrupt) || totals[0].N != 0 {
			t.Errorf("a %d-float minmax accumulator: %v, %d elements folded; want wire.ErrCorrupt and none", len(acc), err, totals[0].N)
		}
	}
}

// TestReadSubBatchReplyFrame: the peer-pull lane gathers each region from
// the page straight into its reply; the bytes are what they were when a
// region was gathered into a slice and the slice put — per region a count,
// then its values packed row by row — held here against the literal frame: a
// whole 2×2×2 page, a box of two half-rows, an empty box (a count and no
// page entered: its index is not even checked), and the last plane.
func TestReadSubBatchReplyFrame(t *testing.T) {
	pd, err := newPageDevice(rmi.NewEnv(0), "golden", 2, 2*2*2*8, DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	a := &arrayPageDevice{pageDevice: pd, n1: 2, n2: 2, n3: 2}
	if err := a.withPage(1, overwrite, func(elems []float64) {
		for i := range elems {
			elems[i] = float64(i + 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	args := wire.NewEncoder(64)
	args.PutInt(4)
	putSubBox(args, 1, SubBox{Dim: [3]int{2, 2, 2}})
	putSubBox(args, 1, SubBox{Lo: [3]int{0, 1, 1}, Dim: [3]int{2, 1, 1}})
	putSubBox(args, 7, SubBox{Lo: [3]int{1, 1, 1}, Dim: [3]int{1, 0, 1}})
	putSubBox(args, 1, SubBox{Lo: [3]int{1, 0, 0}, Dim: [3]int{1, 2, 2}})
	reply := wire.NewEncoder(16)
	if err := a.readSubBatch(nil, wire.NewDecoder(args.Bytes()), reply); err != nil {
		t.Fatal(err)
	}
	f := func(v byte, exp byte) string { return fmt.Sprintf("000000000000%02x%02x", v, exp) } // little-endian float64 bits
	one, two, three, four := f(0xf0, 0x3f), f(0x00, 0x40), f(0x08, 0x40), f(0x10, 0x40)
	five, six, seven, eight := f(0x14, 0x40), f(0x18, 0x40), f(0x1c, 0x40), f(0x20, 0x40)
	want := "08" + one + two + three + four + five + six + seven + eight +
		"02" + four + eight +
		"00" +
		"04" + five + six + seven + eight
	if got := hex.EncodeToString(reply.Bytes()); got != want {
		t.Errorf("readSubBatch reply\n got %s\nwant %s", got, want)
	}
	if reads := a.reads.Load(); reads != 3 {
		t.Errorf("three regions served, %d page reads counted", reads)
	}
}
