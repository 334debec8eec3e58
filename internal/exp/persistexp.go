package exp

import (
	"fmt"
	"time"

	"oopp/internal/pagedev"
	"oopp/internal/persist"
)

// E10 — §5: "The runtime system is responsible for storing process
// representation, and activating and de-activating processes, as needed.
// Processes can be accessed using a symbolic object address." Measure
// bind/resolve latency and passivation/activation cost as the process
// state grows.
var e10 = Experiment{
	ID:    "E10",
	Title: "Persistent processes: passivation and activation",
	Claim: "§5: processes are addressed symbolically; the runtime saves and restores" +
		" their representation — costs scale with state size, resolution stays flat",
	Columns: []string{"state", "bind µs", "resolve µs", "passivate ms", "activate ms"},
	run: func(x *run) error {
		cl, err := x.modeled(2)
		if err != nil {
			return err
		}
		client := cl.Client()
		mgr, err := persist.NewManager(bg, client, 0, []int{0, 1})
		if err != nil {
			return err
		}
		x.later(func() { mgr.Close(bg) })

		const iters = 5
		for _, s := range []struct {
			label    string
			pages    int
			pageSize int
		}{
			{"4KiB", 1, 4 << 10},
			{"64KiB", 4, 16 << 10},
			{"1MiB", 16, 64 << 10},
		} {
			var took [4]time.Duration // bind, resolve, passivate, activate
			for i := 0; i < iters; i++ {
				dev, err := pagedev.NewDevice(bg, client, 1, "e10", s.pages, s.pageSize, pagedev.DiskPrivate)
				if err != nil {
					return err
				}
				// Touch every page so the state is real.
				page := make([]byte, s.pageSize)
				for p := 0; p < s.pages; p++ {
					page[0] = byte(p)
					if err := dev.Write(bg, p, page); err != nil {
						return err
					}
				}
				addr := persist.MustParseAddress(fmt.Sprintf("oop://exp/e10/%s/%d", s.label, i))

				resolve := func() error { _, err := mgr.Resolve(bg, addr); return err }
				for j, step := range []func() error{
					func() error { return mgr.Bind(bg, addr, dev.Ref()) },
					resolve,
					func() error { return mgr.Deactivate(bg, addr) },
					resolve, // transparently reactivates
				} {
					m, err := measure(0, 1, step)
					if err != nil {
						return err
					}
					took[j] += m.per
				}
				// Clean up this iteration's process and blob.
				if err := mgr.Destroy(bg, addr); err != nil {
					return err
				}
			}
			x.AddRow(s.label, usPrec(took[0]/iters), usPrec(took[1]/iters), msPrec(took[2]/iters), msPrec(took[3]/iters))
		}
		x.Note("expected shape: bind/resolve flat (directory round trips); passivate/activate growing with state size (serialization + copy)")
		return nil
	},
}
