package exp

import (
	"fmt"

	"oopp/internal/rmi"
	"oopp/internal/trace"
)

// E17 measures what the observability layer costs the RMI hot path — the
// invariant PR 10 is built around is that a process that nobody is
// watching pays nothing. Three lanes of the same small echo call over a
// two-machine modeled link:
//
//   - untraced: no trace context anywhere. This is the zero-allocation
//     hot path every earlier experiment gated; the experiment FAILS
//     (not just reports) if it allocates, so a regression cannot hide
//     behind a pin refresh.
//   - unsampled: a trace context rides the context and the wire (the
//     header is stamped, the server restores it into Env.Ctx()), but
//     sampling is off, so no spans are captured. Costs the per-call Env
//     copy and context value — a couple of allocations, held by the
//     pinned allocs column.
//   - sampled: rmi.WithSampled() on every call — client span, server
//     span, ring publication. The expensive lane by design; its alloc
//     count is the pinned budget for full capture.
//
// The µs/op column is a fact about the host and is only printed; the
// allocs/op column is a property of the code and is pinned.
var e17 = Experiment{
	ID:    "E17",
	Title: "Tracing overhead: untraced, unsampled, and sampled calls",
	Claim: "observability must be free when off: the untraced hot path stays" +
		" zero-allocation, propagation costs O(1) small allocations, and only" +
		" sampled calls pay for span capture",
	Columns: []string{"lane", "calls", "µs/op", "allocs/op"},
	pinned:  map[string]rule{"lane": label, "allocs/op": ceiling},
	run: func(x *run) error {
		const iters = 300
		cl, err := x.modeled(2)
		if err != nil {
			return err
		}
		client := cl.Client()
		ref, err := echoClass.New(bg, client, 1, struct{}{})
		if err != nil {
			return err
		}

		payload := make([]byte, 64)
		for _, lane := range []struct {
			name string
			call func() error
		}{
			{"untraced", echo(bg, client, ref, payload)},
			// One long-lived unsampled trace context: what a request that an
			// upstream chose not to sample looks like at every hop.
			{"unsampled", echo(trace.ContextWith(bg, trace.NewRoot(false)), client, ref, payload)},
			{"sampled", echo(bg, client, ref, payload, rmi.WithSampled())},
		} {
			s, err := measure(10, iters, lane.call)
			if err != nil {
				return fmt.Errorf("%s: %w", lane.name, err)
			}
			if lane.name == "untraced" && s.allocs > 0.5 && !raceEnabled {
				return fmt.Errorf("untraced hot path allocates: %.2f allocs/op, want 0", s.allocs)
			}
			x.AddRow(lane.name, fmt.Sprintf("%d", iters), usPrec(s.per), fmt.Sprintf("%.1f", s.allocs))
		}
		x.Note("untraced is hard-gated at 0 allocs/op inside the experiment; sampled captured spans land in the ring, pulled by cmd/opptrace")
		return nil
	},
}
