package cluster

import (
	"context"
	"fmt"
	"path/filepath"

	"oopp/internal/disk"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/transport"
)

// NodeConfig describes one machine of a multi-process cluster — the
// per-process counterpart of Config, which brings up all machines inside
// one process.
type NodeConfig struct {
	// Machine is this node's index.
	Machine int
	// Addr is the listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// Transport connects machines; nil defaults to TCP.
	Transport transport.Transport
	// Directory resolves peers for the node's outbound client. Nil falls
	// back to Registry; if both are nil the node runs without an
	// outbound client (its objects cannot call other machines).
	Directory rmi.Directory
	// Registry, when set, receives this node's listen address at startup
	// (Publish) and doubles as the peer Directory when Directory is nil.
	Registry *FileRegistry
	// Machines is the cluster size recorded in the node's Env; 0 infers
	// it from the directory.
	Machines int
	// Disks simulated disks are installed as "disk/0"... Default 0.
	Disks int
	// DiskSize is each simulated disk's capacity (default 64 MiB when
	// Disks > 0).
	DiskSize int64
	// DiskModel sets seek/bandwidth simulation for the disks.
	DiskModel disk.Model
	// DataDir, when non-empty, backs disks with files under it and gives
	// the machine a persistence scratch directory.
	DataDir string
	// Admission bounds the node's in-flight work per priority class (see
	// rmi.AdmissionConfig). Zero selects the rmi defaults.
	Admission rmi.AdmissionConfig
}

// Node is one running machine: its object server, outbound client, and
// local disks. cmd/oppcluster runs one per process and the e2e harness
// boots N of them (StartNode); New brings N up inside one process.
type Node struct {
	machine int
	server  *rmi.Server
	client  *rmi.Client
	disks   []*disk.Disk
}

// StartNode brings one machine up: install disks, listen, create the
// outbound client, and publish the listen address to the registry (if
// any) so peers and clients can find it.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Transport == nil {
		cfg.Transport = transport.TCP{}
	}
	dir := cfg.Directory
	if dir == nil && cfg.Registry != nil {
		dir = cfg.Registry
	}
	if cfg.Machines == 0 && dir != nil {
		cfg.Machines = dir.Size()
	}
	// One machine per process here, so the process-default span machine
	// stamp is simply this node's index (server spans stamp their own).
	trace.SetMachine(cfg.Machine)
	n, err := bringUp(cfg)
	if err != nil {
		return nil, err
	}
	if dir != nil {
		n.client = n.Env().AttachClient(cfg.Transport, dir)
	}
	if cfg.Registry != nil {
		if err := cfg.Registry.Publish(cfg.Machine, n.Addr()); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// bringUp is how every machine comes up, whichever process it shares:
// disks installed in its Env as "disk/0", "disk/1", ... (file-backed under
// DataDir/machine<i>/disk<j>.img when DataDir is set), then the listening
// server. cfg.Transport and cfg.Machines are already resolved; the
// outbound client is attached by the caller once it has a directory. A
// machine that fails to come up leaves nothing open.
func bringUp(cfg NodeConfig) (*Node, error) {
	if cfg.DiskSize == 0 {
		cfg.DiskSize = 64 << 20 // 64 MiB default device
	}
	env := rmi.NewEnv(cfg.Machine)
	env.Machines = cfg.Machines
	n := &Node{machine: cfg.Machine}
	if cfg.DataDir != "" && cfg.Disks > 0 {
		env.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("machine%d", cfg.Machine))
		if err := mkdirAll(env.DataDir); err != nil {
			return nil, err
		}
	}
	for j := 0; j < cfg.Disks; j++ {
		name := fmt.Sprintf("m%d/disk%d", cfg.Machine, j)
		var d *disk.Disk
		if env.DataDir == "" {
			d = disk.NewMem(name, cfg.DiskSize, cfg.DiskModel)
		} else {
			var err error
			d, err = disk.NewFile(name, filepath.Join(env.DataDir, fmt.Sprintf("disk%d.img", j)), cfg.DiskSize, cfg.DiskModel)
			if err != nil {
				n.Close()
				return nil, err
			}
		}
		d.CountInto(env.Counters())
		env.PutResource(fmt.Sprintf("disk/%d", j), d)
		n.disks = append(n.disks, d)
	}
	srv, err := rmi.NewServer(cfg.Machine, cfg.Transport, cfg.Addr, env)
	if err != nil {
		n.Close()
		return nil, err
	}
	srv.SetAdmission(cfg.Admission)
	n.server = srv
	env.PutResource(rmi.ResourceServer, srv)
	return n, nil
}

// JoinNode starts a node on the next free machine index claimed from
// cfg.Registry — how a new machine enters a running cluster without
// coordinating an index ahead of time. cfg.Machine is ignored; the
// claimed index is authoritative (read it back with Machine()). The
// node is immediately dialable by any process whose registry has grown
// to cover it; flowing pages onto it is Array.Rebalance's job.
func JoinNode(cfg NodeConfig) (*Node, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: joining requires a registry")
	}
	m, err := cfg.Registry.ClaimIndex()
	if err != nil {
		return nil, err
	}
	cfg.Machine = m
	return StartNode(cfg)
}

// Machine returns the node's machine index.
func (n *Node) Machine() int { return n.machine }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.server.Addr() }

// Server returns the node's object server.
func (n *Node) Server() *rmi.Server { return n.server }

// Env returns the node's environment.
func (n *Node) Env() *rmi.Env { return n.server.Env() }

// Disks returns the node's simulated disks.
func (n *Node) Disks() []*disk.Disk { return n.disks }

// Drain gracefully refuses new work and waits (bounded by ctx) for
// in-flight calls to finish — the first half of a SIGTERM shutdown.
func (n *Node) Drain(ctx context.Context) error { return n.server.Drain(ctx) }

// Close releases everything: outbound client, server (terminating object
// processes), disks. Safe on a partially-started node.
func (n *Node) Close() error {
	var firstErr error
	if n.client != nil {
		if err := n.client.Close(); err != nil {
			firstErr = err
		}
	}
	if n.server != nil {
		if err := n.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, d := range n.disks {
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
