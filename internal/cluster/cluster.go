// Package cluster assembles machines into the multi-computer environment
// the paper assumes ("multiple computers machine 0, machine 1, machine 2
// ... are available"). Each machine hosts an RMI object server, an
// outbound client for its objects' peer calls, and a set of simulated
// disks (the hardware substitute described in the root package doc).
//
// A cluster normally lives inside one OS process on an in-process
// transport — deterministic and fast for tests and benchmarks — or over
// TCP for integration tests. cmd/oppcluster instead runs one machine per
// OS process over TCP against a static address list; everything above the
// Directory interface is identical in both deployments.
package cluster

import (
	"fmt"

	"oopp/internal/disk"
	"oopp/internal/rmi"
	"oopp/internal/transport"
)

// Config describes a cluster to bring up.
type Config struct {
	// Machines is the number of machines (>= 1).
	Machines int
	// Transport connects machines. Nil defaults to a cost-free in-process
	// transport; use transport.NewInproc with a LinkModel for modeled
	// networks, or transport.TCP{} for real sockets.
	Transport transport.Transport
	// DisksPerMachine simulated disks are attached to every machine,
	// registered in the machine Env as "disk/0", "disk/1", ...
	DisksPerMachine int
	// DiskSize is the capacity of each simulated disk in bytes.
	DiskSize int64
	// DiskModel sets seek/bandwidth simulation for all disks. Zero means
	// no simulated delays.
	DiskModel disk.Model
	// DataDir, when non-empty, backs disks with real files under
	// DataDir/machine<i>/disk<j>.img and provides machines a scratch
	// directory for persistence. Empty keeps everything in memory.
	DataDir string
	// Admission bounds each machine's in-flight work per priority class
	// (see rmi.AdmissionConfig). The zero value selects the rmi defaults;
	// use rmi.Unbounded() to disable shedding entirely.
	Admission rmi.AdmissionConfig
}

// Machine is one node of an in-process cluster — the same thing StartNode
// runs one of per process.
type Machine = Node

// Cluster is a set of machines sharing a transport and address directory.
type Cluster struct {
	machines []*Machine
	dir      rmi.StaticDirectory
}

// New brings up a cluster per cfg: every machine gets its disks and a
// listening server, then an outbound client over the shared directory.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines == 0 {
		cfg.Machines = 1
	}
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 machine, got %d", cfg.Machines)
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.NewInproc(transport.LinkModel{})
	}
	c := &Cluster{}
	for i := 0; i < cfg.Machines; i++ {
		m, err := bringUp(NodeConfig{
			Machine:   i,
			Transport: cfg.Transport,
			Machines:  cfg.Machines,
			Disks:     cfg.DisksPerMachine,
			DiskSize:  cfg.DiskSize,
			DiskModel: cfg.DiskModel,
			DataDir:   cfg.DataDir,
			Admission: cfg.Admission,
		})
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.machines = append(c.machines, m)
		c.dir = append(c.dir, m.Addr())
	}
	// Outbound clients share the final directory.
	for _, m := range c.machines {
		m.client = m.Env().AttachClient(cfg.Transport, c.dir)
	}
	return c, nil
}

// NewLocal is the common case: n machines, d disks each, free transport,
// memory-backed unmodeled disks. Suitable for correctness tests.
func NewLocal(n, d int) (*Cluster, error) {
	return New(Config{Machines: n, DisksPerMachine: d})
}

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.machines) }

// Machine returns machine i.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }

// Client returns machine 0's client — the viewpoint of the paper's user
// program, which runs "on machine 0".
func (c *Cluster) Client() *rmi.Client { return c.machines[0].client }

// Directory returns the address directory (machine i -> address).
func (c *Cluster) Directory() rmi.Directory { return c.dir }

// Addrs returns the listen addresses of all machines.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.dir...) }

// Shutdown stops every machine: clients close — all of them first, so no
// object calls out into a cluster that is going away — then servers
// terminate their object processes (running destructors) and disks close.
func (c *Cluster) Shutdown() error {
	for _, m := range c.machines {
		if m.client != nil {
			m.client.Close()
		}
	}
	var firstErr error
	for _, m := range c.machines {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
