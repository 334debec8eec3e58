package rmi

import (
	"testing"

	"oopp/internal/trace"
	"oopp/internal/wire"
)

// TestTraceHeaderRoundTrip drives the optional trace header through its
// encode/decode pair for the interesting corners: full round trips,
// old-format frames (no flag bit), and truncated headers — the last two
// must decode cleanly as "untraced", never as an error or a panic, since
// tracing is version-tolerant by construction.
func TestTraceHeaderRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		sc   trace.SpanContext
	}{
		{"sampled", trace.SpanContext{TraceID: 0xdeadbeefcafe, SpanID: 42, Sampled: true}},
		{"unsampled", trace.SpanContext{TraceID: 7, SpanID: 9}},
		{"max ids", trace.SpanContext{TraceID: ^uint64(0), SpanID: ^uint64(0), Sampled: true}},
		{"small ids", trace.SpanContext{TraceID: 1, SpanID: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := wire.NewEncoder(32)
			putTraceHeader(e, tc.sc)
			d := wire.NewDecoder(e.Bytes())
			got := decodeTraceHeader(byte(PrioNormal)|leadTraceFlag, d)
			if got != tc.sc {
				t.Fatalf("round trip: got %+v, want %+v", got, tc.sc)
			}
			if d.Err() != nil {
				t.Fatalf("decoder error after round trip: %v", d.Err())
			}
		})
	}
}

// TestTraceHeaderOldFormat checks that a frame whose lead byte has no
// trace flag — i.e. every frame an old client emits — consumes zero
// bytes from the decoder and yields the untraced context, regardless of
// what follows.
func TestTraceHeaderOldFormat(t *testing.T) {
	e := wire.NewEncoder(32)
	e.PutUvarint(123) // op-specific payload an old frame would carry here
	for _, lead := range []byte{byte(PrioHigh), byte(PrioNormal), byte(PrioBulk)} {
		d := wire.NewDecoder(e.Bytes())
		sc := decodeTraceHeader(lead, d)
		if sc != (trace.SpanContext{}) {
			t.Fatalf("lead %#x: old frame decoded as traced: %+v", lead, sc)
		}
		if got := d.Uvarint(); got != 123 || d.Err() != nil {
			t.Fatalf("lead %#x: old frame payload consumed: got %d, err %v", lead, got, d.Err())
		}
	}
}

// TestTraceHeaderTruncated feeds every proper prefix of an encoded trace
// header to the decoder: each must come back untraced without panicking.
// The decoder's sticky error is deliberately left set so the op-specific
// decode (which the truncation also mangled) surfaces the frame error.
func TestTraceHeaderTruncated(t *testing.T) {
	e := wire.NewEncoder(32)
	putTraceHeader(e, trace.SpanContext{TraceID: 1 << 40, SpanID: 1 << 33, Sampled: true})
	full := e.Bytes()
	for n := 0; n < len(full); n++ {
		d := wire.NewDecoder(full[:n])
		sc := decodeTraceHeader(byte(PrioBulk)|leadTraceFlag, d)
		if sc != (trace.SpanContext{}) {
			t.Fatalf("prefix %d/%d: truncated header decoded as traced: %+v", n, len(full), sc)
		}
	}
}

// TestTraceHeaderGarbage fuzzes short random-ish byte strings through
// the decode path; any outcome but a panic is acceptable, and a
// successfully decoded context must round-trip back to identical bytes.
func TestTraceHeaderGarbage(t *testing.T) {
	seeds := [][]byte{
		{},
		{0x80},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0x01, 0x01, 0x00},
		{0x00, 0x00, 0x00},
		{0x01, 0x01, 0xff}, // unknown flag bits: must not confuse Sampled
	}
	for i, b := range seeds {
		d := wire.NewDecoder(b)
		sc := decodeTraceHeader(leadTraceFlag, d)
		if sc.TraceID != 0 && !sc.Sampled && len(b) >= 3 && b[len(b)-1]&1 == 1 {
			t.Fatalf("seed %d: sampled bit lost: %+v from % x", i, sc, b)
		}
	}
}

// TestClampPriorityMasksTraceFlag: the trace bit must never leak into
// the admission class.
func TestClampPriorityMasksTraceFlag(t *testing.T) {
	for p := Priority(0); p < NumPriorities; p++ {
		if got := clampPriority(byte(p) | leadTraceFlag); got != p {
			t.Fatalf("clampPriority(%#x) = %v, want %v", byte(p)|leadTraceFlag, got, p)
		}
	}
	if got := clampPriority(0x80 | 0x55); got != PrioNormal {
		t.Fatalf("unknown flagged class: got %v, want PrioNormal", got)
	}
}

// FuzzTraceHeader feeds decodeTraceHeader an arbitrary lead byte and
// frame tail, as a socket can: it never panics, a lead byte without the
// flag consumes nothing, a truncated header is the untraced context, and
// whatever context does come out is one putTraceHeader writes back
// readably — as is any context at all, here one built from the input.
func FuzzTraceHeader(f *testing.F) {
	e := wire.NewEncoder(32)
	putTraceHeader(e, trace.SpanContext{TraceID: 1 << 40, SpanID: 1 << 33, Sampled: true})
	for n := 0; n <= len(e.Bytes()); n++ { // TestTraceHeaderTruncated's prefixes, and the whole
		f.Add(byte(PrioBulk)|leadTraceFlag, append([]byte(nil), e.Bytes()[:n]...))
	}
	for _, b := range [][]byte{{}, {0x80}, {0x01, 0x01, 0x00}, {0x00, 0x00, 0x00}, {0x01, 0x01, 0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}} { // TestTraceHeaderGarbage's
		f.Add(byte(leadTraceFlag), b)
		f.Add(byte(PrioNormal), b) // an old-format frame
	}
	f.Fuzz(func(t *testing.T, lead byte, tail []byte) {
		d := wire.NewDecoder(tail)
		sc := decodeTraceHeader(lead, d)
		if lead&leadTraceFlag == 0 && (sc != trace.SpanContext{} || d.Remaining() != len(tail) || d.Err() != nil) {
			t.Fatalf("unflagged lead %#x read a header: %+v, %d of %d bytes left, err %v", lead, sc, d.Remaining(), len(tail), d.Err())
		}
		if d.Err() != nil && sc != (trace.SpanContext{}) {
			t.Fatalf("truncated header % x decoded as traced: %+v", tail, sc)
		}
		built := trace.SpanContext{Sampled: len(tail)%2 == 1}
		for i, b := range tail {
			built.TraceID = built.TraceID<<8 | uint64(b)
			built.SpanID ^= uint64(b) << (8 * (i % 8))
		}
		for _, want := range []trace.SpanContext{sc, built} {
			e := wire.NewEncoder(32)
			putTraceHeader(e, want)
			back := wire.NewDecoder(e.Bytes())
			if got := decodeTraceHeader(leadTraceFlag, back); got != want || back.Err() != nil || back.Remaining() != 0 {
				t.Fatalf("round trip of %+v: got %+v, err %v, %d bytes left", want, got, back.Err(), back.Remaining())
			}
		}
	})
}
