package rmi

import (
	"context"
	"fmt"
	"sync"

	"oopp/internal/metrics"
)

// Env is the per-machine environment visible to server-side objects. It is
// how an object reaches the resources of the machine it runs on (its
// disks, its scratch directory) and the rest of the cluster (the machine's
// outbound Client, used by objects that call methods on other remote
// objects — e.g. FFT workers exchanging transpose blocks, §4).
//
// An Env value is a shallow view over shared machine state: the server
// derives a per-call copy when a request carries a trace context (so
// Ctx returns that request's context), and all copies share one resource
// table behind an internal pointer. Field writes (Machine, Client, ...)
// happen only at machine bring-up, before any call is served.
type Env struct {
	// Machine is the index of the hosting machine.
	Machine int
	// Machines is the cluster size, when known (0 otherwise).
	Machines int
	// Client is the machine's outbound RMI client. Objects use it to
	// construct and invoke objects on other machines. May be nil on
	// standalone servers.
	Client *Client
	// DataDir is a machine-local scratch directory for persistent state.
	DataDir string

	// ctx is the per-call handler context (trace propagation); nil on the
	// machine's base environment.
	ctx context.Context

	shared *envShared
}

// envShared is the machine state every per-call Env view aliases.
type envShared struct {
	counters  *metrics.Registry
	mu        sync.RWMutex
	resources map[string]any
}

// NewEnv returns an environment for the given machine index, with an
// empty counter registry that the machine's server closes.
func NewEnv(machine int) *Env {
	return &Env{Machine: machine, shared: &envShared{counters: metrics.NewRegistry(), resources: make(map[string]any)}}
}

// Counters is the machine's counter registry: its server, its outbound
// client (AttachClient), its page devices and their disks count there,
// and the debug plane ships it (Client.Debug).
func (e *Env) Counters() *metrics.Registry { return e.shared.counters }

// Ctx returns the context of the call being handled. For a request that
// arrived with a trace header it carries the restored trace.SpanContext,
// so peer hops made through env.Client extend the caller's trace with
// correctly-parented spans:
//
//	d, err := env.Client.Call(env.Ctx(), peer, "readSubBatch", ...)
//
// Untraced requests (and code running outside a call) get
// context.Background() — handlers can always pass Ctx() where they used
// to pass a background context.
func (e *Env) Ctx() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// withCtx returns a per-call view of the environment carrying ctx. The
// copy shares the resource table with the base environment.
func (e *Env) withCtx(ctx context.Context) *Env {
	cp := *e
	cp.ctx = ctx
	return &cp
}

// PutResource installs a named machine-local resource (e.g. "disk/0" ->
// *disk.Disk). Resources are installed at machine bring-up, before any
// object can run, but the map is locked anyway for safety.
func (e *Env) PutResource(name string, v any) {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	e.shared.resources[name] = v
}

// Resource looks up a named resource.
func (e *Env) Resource(name string) (any, bool) {
	e.shared.mu.RLock()
	defer e.shared.mu.RUnlock()
	v, ok := e.shared.resources[name]
	return v, ok
}

// MustResource looks up a named resource and returns an error naming the
// machine when it is absent — constructors use this to fail informatively.
func (e *Env) MustResource(name string) (any, error) {
	if v, ok := e.Resource(name); ok {
		return v, nil
	}
	return nil, fmt.Errorf("rmi: machine %d has no resource %q", e.Machine, name)
}
