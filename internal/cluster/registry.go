// Peer registry and readiness: the bootstrap half of a multi-process
// cluster. Machines starting as separate OS processes (cmd/oppcluster,
// the internal/e2e harness) cannot share a StaticDirectory built in one
// process, and clients must not race server start — this file provides
// both halves: a filesystem-backed address registry each server
// publishes into, and WaitReady, which blocks until every machine
// answers a ping.

package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"oopp/internal/rmi"
)

// registryPollInterval is how often FileRegistry.Addr re-checks for a
// not-yet-published machine address.
const registryPollInterval = 20 * time.Millisecond

// FileRegistry is an rmi.Directory backed by a shared directory of
// address files: machine i publishes its dialable address to
// <dir>/machine<i>.addr (atomically, via rename), and Addr reads the
// current file — so a machine that restarts on a new port is re-resolved
// on the next dial, which is what lets the client's automatic reconnect
// follow it. Any shared filesystem works (one host's tmpdir for tests,
// NFS for a rack).
//
// The registry is elastic: a machine beyond the configured size joins
// the cluster by claiming the next free index (ClaimIndex — an atomic
// O_EXCL create, so two simultaneous joiners get distinct indices) and
// publishing its address there; running processes observe the newcomer
// by calling Grow (or building their registry with the larger size).
type FileRegistry struct {
	dir     string
	n       atomic.Int64
	timeout time.Duration
}

// NewFileRegistry returns a registry of n machines rooted at dir
// (created if missing). Addr waits up to timeout for a machine's address
// to be published; timeout <= 0 means fail immediately when absent.
func NewFileRegistry(dir string, n int, timeout time.Duration) (*FileRegistry, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: registry needs at least 1 machine, got %d", n)
	}
	if err := mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("cluster: registry dir: %w", err)
	}
	r := &FileRegistry{dir: dir, timeout: timeout}
	r.n.Store(int64(n))
	return r, nil
}

func (r *FileRegistry) addrPath(m int) string {
	return filepath.Join(r.dir, fmt.Sprintf("machine%d.addr", m))
}

// Publish records machine m's dialable address. The write is atomic
// (temp file + rename), so readers never observe a torn address, and
// republishing after a restart atomically replaces the old one.
func (r *FileRegistry) Publish(m int, addr string) error {
	if m < 0 || m >= r.Size() {
		return fmt.Errorf("cluster: no machine %d (registry size %d)", m, r.Size())
	}
	tmp, err := os.CreateTemp(r.dir, fmt.Sprintf(".machine%d-*", m))
	if err != nil {
		return fmt.Errorf("cluster: publish machine %d: %w", m, err)
	}
	if _, err := tmp.WriteString(addr); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cluster: publish machine %d: %w", m, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cluster: publish machine %d: %w", m, err)
	}
	if err := os.Rename(tmp.Name(), r.addrPath(m)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cluster: publish machine %d: %w", m, err)
	}
	return nil
}

// Addr implements rmi.Directory: it reads machine m's published address,
// polling until publication or the registry timeout — so a client can be
// created before its servers have bound their ports.
func (r *FileRegistry) Addr(m int) (string, error) {
	return r.AddrContext(context.Background(), m)
}

// AddrContext implements rmi.ContextDirectory: resolution is bounded by
// whichever comes first, ctx or the registry timeout — so a per-call
// deadline (WithTimeout, heartbeat probe budgets) caps the poll instead
// of stalling behind an unpublished machine.
func (r *FileRegistry) AddrContext(ctx context.Context, m int) (string, error) {
	if m < 0 || m >= r.Size() {
		return "", fmt.Errorf("cluster: no machine %d (registry size %d)", m, r.Size())
	}
	deadline := time.Now().Add(r.timeout)
	for {
		b, err := os.ReadFile(r.addrPath(m))
		if err == nil {
			addr := strings.TrimSpace(string(b))
			if addr != "" {
				return addr, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("cluster: machine %d not published in %s after %v", m, r.dir, r.timeout)
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("cluster: resolving machine %d in %s: %w", m, r.dir, ctx.Err())
		case <-time.After(registryPollInterval):
		}
	}
}

// Size implements rmi.Directory.
func (r *FileRegistry) Size() int { return int(r.n.Load()) }

// Grow raises the registry's size so machine indices up to n-1 resolve —
// how a running process (server or client) acknowledges machines that
// joined after it built its registry. Growing never shrinks.
func (r *FileRegistry) Grow(n int) {
	for {
		cur := r.n.Load()
		if int64(n) <= cur || r.n.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// ClaimIndex atomically claims the next unassigned machine index — the
// join half of the elastic cluster. The claim is an O_EXCL create of
// the index's address file (empty: readers poll until the real address
// is published), so two machines joining simultaneously get distinct
// indices. Indices below the configured size are never claimed — they
// belong to machines of the static bootstrap, published or not.
func (r *FileRegistry) ClaimIndex() (int, error) {
	for m := r.Size(); ; m++ {
		f, err := os.OpenFile(r.addrPath(m), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		switch {
		case err == nil:
			f.Close()
			r.Grow(m + 1)
			return m, nil
		case os.IsExist(err):
			// A concurrent joiner beat us to m; its file also proves the
			// registry is at least m+1 machines.
			r.Grow(m + 1)
		default:
			return 0, fmt.Errorf("cluster: claiming machine index %d: %w", m, err)
		}
	}
}

// ParsePeers splits a comma-separated address list ("a:1,b:2") into a
// directory-ready slice, rejecting empty entries — the validation shared
// by cmd/oppcluster's -peers flag and tests.
func ParsePeers(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
		if parts[i] == "" {
			return nil, fmt.Errorf("cluster: empty peer address at position %d in %q", i, s)
		}
	}
	return parts, nil
}

// PeerDirectory is the directory a command line names with -machines
// (size), -peers and -registry: a FileRegistry of size machines when
// registry is given, size defaulting to the number of peers; else the
// StaticDirectory of peers. With neither it is nil, for the caller to
// refuse or to do without.
func PeerDirectory(size int, peers, registry string) (rmi.Directory, error) {
	peerList, err := ParsePeers(peers)
	if err != nil {
		return nil, err
	}
	switch {
	case registry != "":
		if size = cmp.Or(size, len(peerList)); size == 0 {
			return nil, fmt.Errorf("-registry needs -machines (cluster size)")
		}
		reg, err := NewFileRegistry(registry, size, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return reg, nil
	case len(peerList) > 0:
		return rmi.StaticDirectory(peerList), nil
	default:
		return nil, nil
	}
}

// readyBackoffMax caps WaitReady's per-machine retry backoff.
const readyBackoffMax = 250 * time.Millisecond

// WaitReady blocks until every listed machine (all machines in the
// client's directory when none are listed) answers a ping, retrying with
// backoff until ctx expires — the readiness barrier that keeps clients
// from racing server start in multi-process deployments. A machine that
// is draining is not ready. The error is errors.Join of one failure per
// machine still unreachable at ctx expiry.
func WaitReady(ctx context.Context, client *rmi.Client, machines ...int) error {
	if len(machines) == 0 {
		for m := 0; m < client.Directory().Size(); m++ {
			machines = append(machines, m)
		}
	}
	errSlots := make([]error, len(machines))
	done := make(chan int, len(machines))
	for i, m := range machines {
		go func(i, m int) {
			defer func() { done <- i }()
			delay := 10 * time.Millisecond
			for {
				pctx, cancel := context.WithTimeout(ctx, time.Second)
				// Probe semantics: readiness pings may dial a machine the
				// failure detector marked down — WaitReady after a restart
				// is exactly how such a machine is revived.
				err := client.Ping(pctx, m, rmi.WithProbe())
				cancel()
				if err == nil {
					errSlots[i] = nil
					return
				}
				errSlots[i] = fmt.Errorf("cluster: machine %d not ready: %w", m, err)
				select {
				case <-ctx.Done():
					return
				case <-time.After(delay):
				}
				if delay *= 2; delay > readyBackoffMax {
					delay = readyBackoffMax
				}
			}
		}(i, m)
	}
	for range machines {
		<-done
	}
	return errors.Join(errSlots...)
}
