package rmi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// HeartbeatConfig tunes a Heartbeat failure detector.
type HeartbeatConfig struct {
	// Interval is the probe period. Default 500ms.
	Interval time.Duration
	// Timeout bounds each probe (dial + round trip). Default Interval.
	Timeout time.Duration
	// Misses is how many consecutive failed probes declare a machine
	// down. Default 2 — one miss is routinely a scheduling hiccup.
	Misses int
	// Machines restricts probing to these machine indices. Nil probes
	// every machine in the client's directory.
	Machines []int
	// OnDown, if set, is called (from the monitor goroutine) when a
	// machine transitions up -> down, with the typed cause.
	OnDown func(machine int, cause error)
	// OnUp, if set, is called when a down machine answers a probe again.
	OnUp func(machine int)
}

func (cfg HeartbeatConfig) withDefaults() HeartbeatConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.Misses < 1 {
		cfg.Misses = 2
	}
	return cfg
}

// Heartbeat is a machine-level failure detector: it probes machines with
// periodic pings and, after Misses consecutive failures, declares the
// machine down on its Client — pending calls to it fail with a
// *MachineDownError, and new calls fail fast (errors.Is(err,
// ErrMachineDown)) instead of timing out one by one. Probes keep running
// against down machines, so a machine that comes back (process restart,
// network heal) is automatically marked up again and traffic resumes
// through a fresh connection.
//
// Collective operations surface detector verdicts per member: a
// Collection broadcast over a cluster with one dead machine returns an
// errors.Join whose MemberErrors for that machine's members wrap
// ErrMachineDown — each names its member, and
// collection.FailedMachines lists the machines.
type Heartbeat struct {
	client *Client
	cfg    HeartbeatConfig

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu       sync.Mutex
	misses   map[int]int
	down     map[int]bool // machines this detector has declared down
	inflight map[int]bool // probes not yet returned, keyed by machine
}

// StartHeartbeat starts a failure detector over the client's machines.
// Stop it with Heartbeat.Stop; stopping does not clear down marks — a
// later successful probe (another heartbeat, a cluster.WaitReady
// readiness ping, any WithProbe operation) revives the machine.
func (c *Client) StartHeartbeat(cfg HeartbeatConfig) *Heartbeat {
	cfg = cfg.withDefaults()
	machines := cfg.Machines
	if machines == nil {
		for m := 0; m < c.dir.Size(); m++ {
			machines = append(machines, m)
		}
	}
	h := &Heartbeat{
		client:   c,
		cfg:      cfg,
		stop:     make(chan struct{}),
		misses:   make(map[int]int),
		down:     make(map[int]bool),
		inflight: make(map[int]bool),
	}
	h.wg.Add(1)
	go h.loop(machines)
	return h
}

// Stop halts probing and waits for in-flight probes to finish.
func (h *Heartbeat) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.wg.Wait()
}

func (h *Heartbeat) loop(machines []int) {
	defer h.wg.Done()
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
		h.probeAll(machines)
	}
}

// probeAll launches one probe per machine and returns without waiting:
// a probe wedged past cfg.Timeout (e.g. a directory resolver blocking on
// an unpublished address) cannot stall the tick loop or detection of the
// other machines. A machine with a probe still in flight is skipped this
// round rather than probed twice.
func (h *Heartbeat) probeAll(machines []int) {
	for _, m := range machines {
		h.mu.Lock()
		busy := h.inflight[m]
		if !busy {
			h.inflight[m] = true
		}
		h.mu.Unlock()
		if busy {
			continue
		}
		h.wg.Add(1)
		go func(m int) {
			defer h.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Timeout)
			err := h.client.Ping(ctx, m, WithTimeout(h.cfg.Timeout), WithProbe(), WithLabel("heartbeat"))
			cancel()
			h.mu.Lock()
			delete(h.inflight, m)
			h.mu.Unlock()
			h.record(m, err)
		}(m)
	}
}

// record applies one probe verdict: misses accumulate toward the down
// threshold, a success clears everything and (if the machine was down)
// marks it back up on the client.
func (h *Heartbeat) record(m int, err error) {
	h.mu.Lock()
	if err == nil {
		wasDown := h.down[m]
		delete(h.down, m)
		h.misses[m] = 0
		h.mu.Unlock()
		if wasDown {
			h.client.markUp(m)
			if h.cfg.OnUp != nil {
				h.cfg.OnUp(m)
			}
		}
		return
	}
	h.misses[m]++
	trip := h.misses[m] >= h.cfg.Misses && !h.down[m]
	var cause error
	if trip {
		cause = fmt.Errorf("rmi: %d consecutive heartbeat probes failed: %w", h.misses[m], err)
		h.down[m] = true
	}
	h.mu.Unlock()
	if trip {
		// A draining machine is leaving, not crashed: keep the connection
		// open — the server is still answering the calls it accepted
		// before the drain, and refusing new ones itself with ErrDraining.
		// The recorded verdict becomes the fast-fail answer once the link
		// dies. Only a genuine failure severs the link and fails pending
		// calls.
		draining := errors.Is(err, ErrDraining)
		h.client.markDown(m, cause, !draining)
		if h.cfg.OnDown != nil {
			h.cfg.OnDown(m, cause)
		}
	}
}
