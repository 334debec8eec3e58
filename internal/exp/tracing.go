package exp

import (
	"fmt"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// E17Tracing measures what the observability layer costs the RMI hot
// path — the invariant PR 10 is built around is that a process that
// nobody is watching pays nothing. Three lanes of the same small echo
// call over a two-machine modeled link:
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
func E17Tracing(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "Tracing overhead: untraced, unsampled, and sampled calls",
		Claim: "observability must be free when off: the untraced hot path stays" +
			" zero-allocation, propagation costs O(1) small allocations, and only" +
			" sampled calls pay for span capture",
		Columns: []string{"lane", "calls", "µs/op", "allocs/op"},
		pinned:  map[string]rule{"lane": label, "allocs/op": ceiling},
	}
	iters := cfg.iters(300, 3000)

	cl, err := cluster.New(cluster.Config{Machines: 2, Transport: transport.NewInproc(modeledLink())})
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	client := cl.Client()
	ref, err := client.New(bg, 1, classEcho, nil)
	if err != nil {
		return nil, err
	}

	payload := make([]byte, 64)
	echoArgs := func(e *wire.Encoder) error {
		e.PutBytes(payload)
		return nil
	}

	lanes := []struct {
		name string
		call func() error
	}{
		{"untraced", func() error {
			d, err := client.Call(bg, ref, "echo", echoArgs)
			d.Release()
			return err
		}},
		// One long-lived unsampled trace context: what a request that an
		// upstream chose not to sample looks like at every hop.
		{"unsampled", func() func() error {
			ctx := trace.ContextWith(bg, trace.NewRoot(false))
			return func() error {
				d, err := client.Call(ctx, ref, "echo", echoArgs)
				d.Release()
				return err
			}
		}()},
		{"sampled", func() error {
			d, err := client.Call(bg, ref, "echo", echoArgs, rmi.WithSampled())
			d.Release()
			return err
		}},
	}

	for _, lane := range lanes {
		s, err := measure(10, iters, lane.call)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lane.name, err)
		}
		if lane.name == "untraced" && s.allocs > 0.5 && !raceEnabled {
			return nil, fmt.Errorf("untraced hot path allocates: %.2f allocs/op, want 0", s.allocs)
		}
		t.AddRow(lane.name, fmt.Sprintf("%d", iters), usPrec(s.per), fmt.Sprintf("%.1f", s.allocs))
	}
	t.Note("untraced is hard-gated at 0 allocs/op inside the experiment; sampled captured spans land in the ring, pulled by cmd/opptrace")
	return t, nil
}
