package collection

import (
	"context"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Reduce invokes method on every member concurrently (bounded by the
// collection's window), decodes each member's reply into an R with dec,
// and combines the per-member results client-side with the user monoid
// — the paper's barrier+combine pattern ("the partial sums are computed
// by the data server processes and combined together by the client",
// §5) as one call.
//
// combine must be associative; results are combined in member order, so
// a merely-associative (non-commutative) monoid still reduces
// deterministically. An empty collection yields R's zero value.
//
// The decoder handed to dec owns a pooled response frame that is
// recycled the moment dec returns: decode by value (Float64, Int,
// Ints, BytesCopy ...) — views from BytesView/Bytes die with the frame
// (see the buffer-ownership rules in the rmi package doc). On member
// failures the partial result is discarded and the error is errors.Join
// of all member failures.
func Reduce[T, R any](ctx context.Context, c *Collection[T], method string, args MemberEncoder, dec func(m Member, d *wire.Decoder) (R, error), combine func(R, R) R, opts ...rmi.CallOption) (R, error) {
	var acc R
	first := true
	err := c.CallAll(ctx, method, args, func(m Member, d *wire.Decoder) error {
		v, err := dec(m, d)
		if err != nil {
			return err
		}
		if first {
			acc, first = v, false
		} else {
			acc = combine(acc, v)
		}
		return nil
	}, opts...)
	if err != nil {
		var zero R
		return zero, err
	}
	return acc, nil
}

// DecodeInt reads one varint result as an int — a decoder for Reduce.
func DecodeInt(_ Member, d *wire.Decoder) (int, error) {
	v := d.Int()
	return v, d.Err()
}

// SumInt is the addition monoid on int — a combine for Reduce.
func SumInt(a, b int) int { return a + b }
