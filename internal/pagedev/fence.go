package pagedev

// The migration write fence: the device half of live page migration.
//
// While a page is being copied to another device, writes to it must not
// land here (they would be lost when the page map flips to the new
// owner), but they must not be lost either. The contract:
//
//   - fencePages marks a set of page indices as mid-migration. It is a
//     serial method, so every mutator already in the mailbox ahead of it
//     completes first — once fencePages returns, the fenced pages are
//     immutable and the copy reads a consistent snapshot (served by the
//     thread-safe read surface; reads are never fenced).
//   - Mutators targeting a fenced page are refused with a typed
//     rmi.ErrFenced before any page of the request is touched. Single-
//     page mutators get this where they obtain the page to write (open,
//     or write for the byte protocol); batched mutators first walk their
//     whole region list with checkFence, so a batch either fully applies
//     or applies nowhere — the caller can re-issue the identical batch
//     after the flip without double-applying a non-idempotent kernel.
//   - The Array write path catches ErrFenced, parks until the map
//     flips, re-locates the page, and replays — callers observe a brief
//     latency bump, never an error.
//   - unfencePages ends a migration. release=false ABORTS: the fence
//     clears and the page is owned here again. release=true RETIRES:
//     the page has left for good, so the fence entry is kept — a client
//     still holding the pre-flip map keeps getting the typed refusal
//     instead of silently writing into a dead slot. Retired slots are
//     reclaimed when a later migration picks them as destinations (the
//     engine clears them with release=false before copying).
//     adoptPages is the destination-side accounting hook. Both feed the
//     machine's migration counters (metrics.Registry: PagesHeld, the net
//     pages migrated in, PagesMigrated and BytesMigrated).
//   - A refused fencePages or unfencePages changes nothing: both decode
//     and check the whole index list before touching the fence set or
//     the counters.
//
// The fence set lives on pageDevice and is touched only by serial mailbox
// methods, or read by helpers one of them is waiting for: no lock.

import (
	"context"
	"fmt"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// checkFence refuses mutation of a fenced page.
func (p *pageDevice) checkFence(index int) error {
	if len(p.fence) == 0 {
		return nil
	}
	if _, bad := p.fence[index]; bad {
		return fmt.Errorf("%w: page %d of %q", rmi.ErrFenced, index, p.name)
	}
	return nil
}

// indicesCodec is a fence request's page list: a count, then the
// indices.
var indicesCodec = wire.CodecOf(putIndices, getIndices)

func putIndices(e *wire.Encoder, idxs []int) {
	e.PutInt(len(idxs))
	for _, idx := range idxs {
		e.PutInt(idx)
	}
}

func getIndices(d *wire.Decoder) []int {
	count := d.Int() // 0 if it did not decode
	var idxs []int   // no size hint: count is straight off the socket
	for n := 0; n < count && d.Err() == nil; n++ {
		idxs = append(idxs, d.Int())
	}
	return idxs
}

// unfenceArgs is the argument of unfencePages.
type unfenceArgs struct {
	release bool
	idxs    []int
}

var unfenceCodec = wire.CodecOf(
	func(e *wire.Encoder, a unfenceArgs) { e.PutBool(a.release); putIndices(e, a.idxs) },
	func(d *wire.Decoder) unfenceArgs { return unfenceArgs{d.Bool(), getIndices(d)} })

// adoptArgs is the argument of adoptPages: count pages of bytes payload
// bytes.
type adoptArgs struct {
	count int
	bytes int64
}

var adoptCodec = wire.CodecOf(
	func(e *wire.Encoder, a adoptArgs) { e.PutInt(a.count); e.PutVarint(a.bytes) },
	func(d *wire.Decoder) adoptArgs { return adoptArgs{d.Int(), d.Varint()} })

// checkIndices refuses a fence request unless every index names a page,
// so the caller changes the fence set only once the whole request is
// known to be good.
func (p *pageDevice) checkIndices(idxs []int) error {
	for _, idx := range idxs {
		if err := p.checkIndex(idx); err != nil {
			return err
		}
	}
	return nil
}

// The migration-fence protocol, declared on PageDevice and inherited by
// ArrayPageDevice.
var (
	devFencePages = rmi.DeclareOp(PageDeviceClass, "fencePages", indicesCodec, wire.Void, func(obj baser, env *rmi.Env, idxs []int) (struct{}, error) {
		// fencePages(count, count×idx): serial, so returning proves
		// every earlier mutator has completed — the fenced pages are
		// now a consistent, immutable snapshot for the copy.
		p := obj.base()
		if err := p.checkIndices(idxs); err != nil {
			return struct{}{}, err
		}
		if p.fence == nil {
			p.fence = make(map[int]struct{})
		}
		for _, idx := range idxs {
			p.fence[idx] = struct{}{}
		}
		return struct{}{}, nil
	})
	devUnfencePages = rmi.DeclareOp(PageDeviceClass, "unfencePages", unfenceCodec, wire.Void, func(obj baser, env *rmi.Env, a unfenceArgs) (struct{}, error) {
		// unfencePages(release, count, count×idx). release=false
		// aborts: the fence clears and the pages are writable here
		// again. release=true retires: the pages moved away for good,
		// so the machine's PagesHeld drops — but the fence entries are
		// KEPT so a stale pre-flip map cannot silently write into the
		// dead slots; a later migration reusing a slot clears its
		// retired fence with release=false first.
		p := obj.base()
		if err := p.checkIndices(a.idxs); err != nil {
			return struct{}{}, err
		}
		if a.release {
			env.Counters().PagesHeld.Add(int64(-len(a.idxs)))
		} else {
			for _, idx := range a.idxs {
				delete(p.fence, idx)
			}
		}
		return struct{}{}, nil
	})
	devAdoptPages = rmi.DeclareOp(PageDeviceClass, "adoptPages", adoptCodec, wire.Void, func(obj baser, env *rmi.Env, a adoptArgs) (struct{}, error) {
		// adoptPages(count, bytes): destination-side accounting after
		// a migration copy lands — count pages (bytes payload bytes)
		// now live here per the flipped map.
		env.Counters().PagesHeld.Add(int64(a.count))
		env.Counters().PagesMigrated.Add(int64(a.count))
		env.Counters().BytesMigrated.Add(a.bytes)
		return struct{}{}, nil
	})
)

// FencePages marks the given page indices mid-migration on the device:
// once it returns, mutators targeting them are refused typed
// (rmi.ErrFenced) until UnfencePages, while reads keep flowing.
func (d *Device) FencePages(ctx context.Context, indices []int) error {
	_, err := devFencePages.Call(ctx, d.client, d.ref, indices)
	return err
}

// UnfencePages ends a migration on the given indices. release=false
// aborts it: the fence clears and the pages are owned here again.
// release=true retires the slots: the pages have permanently left this
// device (its machine's PagesHeld drops) and the fence entries persist so
// stale writers get the typed refusal instead of losing data; the slots
// become reusable when a later migration clears them (release=false).
func (d *Device) UnfencePages(ctx context.Context, indices []int, release bool) error {
	_, err := devUnfencePages.Call(ctx, d.client, d.ref, unfenceArgs{release, indices})
	return err
}

// AdoptPages records that count migrated pages (bytes payload bytes)
// now live on this device — the destination half of the migration
// counters.
func (d *Device) AdoptPages(ctx context.Context, count int, bytes int64) error {
	_, err := devAdoptPages.Call(ctx, d.client, d.ref, adoptArgs{count, bytes})
	return err
}
