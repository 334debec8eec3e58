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
	"path/filepath"

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

func (c Config) withDefaults() Config {
	if c.Machines == 0 {
		c.Machines = 1
	}
	if c.Transport == nil {
		c.Transport = transport.NewInproc(transport.LinkModel{})
	}
	if c.DisksPerMachine > 0 && c.DiskSize == 0 {
		c.DiskSize = 64 << 20 // 64 MiB default device
	}
	return c
}

// Machine is one node: object server, outbound client, local disks.
type Machine struct {
	id     int
	server *rmi.Server
	client *rmi.Client
	disks  []*disk.Disk
}

// ID returns the machine index.
func (m *Machine) ID() int { return m.id }

// Server returns the machine's object server.
func (m *Machine) Server() *rmi.Server { return m.server }

// Client returns the machine's outbound RMI client. User programs "running
// on machine i" issue their remote news and calls through this.
func (m *Machine) Client() *rmi.Client { return m.client }

// Env returns the machine's environment.
func (m *Machine) Env() *rmi.Env { return m.server.Env() }

// Disks returns the machine's simulated disks.
func (m *Machine) Disks() []*disk.Disk { return m.disks }

// Cluster is a set of machines sharing a transport and address directory.
type Cluster struct {
	cfg      Config
	machines []*Machine
	dir      rmi.StaticDirectory
}

// New brings up a cluster per cfg: every machine gets a listening server,
// its disks, and an outbound client over the shared directory.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 machine, got %d", cfg.Machines)
	}
	c := &Cluster{cfg: cfg}

	for i := 0; i < cfg.Machines; i++ {
		env := rmi.NewEnv(i)
		env.Machines = cfg.Machines
		srv, err := rmi.NewServer(i, cfg.Transport, "", env)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		srv.SetAdmission(cfg.Admission)
		m := &Machine{id: i, server: srv}
		env.PutResource(rmi.ResourceServer, srv)

		for j := 0; j < cfg.DisksPerMachine; j++ {
			var d *disk.Disk
			name := fmt.Sprintf("m%d/disk%d", i, j)
			if cfg.DataDir != "" {
				path := filepath.Join(cfg.DataDir, fmt.Sprintf("machine%d", i))
				if err := mkdirAll(path); err != nil {
					srv.Close()
					c.Shutdown()
					return nil, err
				}
				d, err = disk.NewFile(name, filepath.Join(path, fmt.Sprintf("disk%d.img", j)), cfg.DiskSize, cfg.DiskModel)
				if err != nil {
					srv.Close()
					c.Shutdown()
					return nil, err
				}
				env.DataDir = path
			} else {
				d = disk.NewMem(name, cfg.DiskSize, cfg.DiskModel)
			}
			env.PutResource(fmt.Sprintf("disk/%d", j), d)
			m.disks = append(m.disks, d)
		}

		c.machines = append(c.machines, m)
		c.dir = append(c.dir, srv.Addr())
	}

	// Outbound clients share the final directory.
	for _, m := range c.machines {
		m.client = rmi.NewClient(cfg.Transport, c.dir)
		m.server.Env().Client = m.client
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

// Shutdown stops every machine: clients close, servers terminate their
// object processes (running destructors), disks close.
func (c *Cluster) Shutdown() error {
	var firstErr error
	for _, m := range c.machines {
		if m == nil {
			continue
		}
		if m.client != nil {
			if err := m.client.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, m := range c.machines {
		if m == nil {
			continue
		}
		if err := m.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		for _, d := range m.disks {
			if err := d.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
