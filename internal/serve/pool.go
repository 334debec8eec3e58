package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"oopp/internal/rmi"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// PoolConfig configures a connection pool.
type PoolConfig struct {
	// Transport and Directory are what rmi.NewClient takes: the byte
	// substrate and the machine address book.
	Transport transport.Transport
	Directory rmi.Directory
	// Conns is the socket budget per target machine: the pool creates
	// this many rmi.Clients, and each client holds at most one
	// connection per machine. Zero selects DefaultConns.
	Conns int
}

// DefaultConns is the per-machine socket budget when PoolConfig.Conns is
// zero. A few multiplexed connections go a long way: each one already
// carries any number of concurrent requests, extra ones mainly add
// receive-loop parallelism and head-of-line relief.
const DefaultConns = 4

// Pool is a fixed set of rmi.Clients sharing the fan-in load. It is the
// answer to "10k callers must not mean 10k sockets": callers hold
// Sessions (or pick clients with ClientFor), the pool keeps the socket
// count at Conns per machine, and the pick spreads outstanding requests
// across the clients by live in-flight count.
type Pool struct {
	clients []*rmi.Client
	rotor   atomic.Uint64 // tie-break start point, advanced per pick
	closed  atomic.Bool
}

// NewPool creates a pool of cfg.Conns clients.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Transport == nil || cfg.Directory == nil {
		return nil, fmt.Errorf("serve: pool needs a transport and a directory")
	}
	n := cfg.Conns
	if n == 0 {
		n = DefaultConns
	}
	if n < 1 {
		return nil, fmt.Errorf("serve: pool size %d", n)
	}
	p := &Pool{clients: make([]*rmi.Client, n)}
	for i := range p.clients {
		p.clients[i] = rmi.NewClient(cfg.Transport, cfg.Directory)
	}
	return p, nil
}

// Conns returns the pool's per-machine socket budget.
func (p *Pool) Conns() int { return len(p.clients) }

// ClientFor returns the pooled client with the fewest outstanding
// requests toward machine m. Ties go round-robin (a rotor offsets the
// scan start), so an idle pool still spreads connections instead of
// herding every caller onto client 0. The choice is advisory — by the
// time the caller issues its request the counts may have moved — but
// under sustained load the feedback keeps the connections balanced.
func (p *Pool) ClientFor(m int) *rmi.Client {
	k := len(p.clients)
	if k == 1 {
		return p.clients[0]
	}
	start := int(p.rotor.Add(1)) % k
	best := p.clients[start]
	bestLoad := best.InFlightTo(m)
	for i := 1; i < k; i++ {
		c := p.clients[(start+i)%k]
		if load := c.InFlightTo(m); load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best
}

// InFlight returns the total outstanding requests across the pool.
func (p *Pool) InFlight() int {
	n := 0
	for _, c := range p.clients {
		n += c.InFlight()
	}
	return n
}

// Session opens a logical client on the pool. The given options become
// the session's defaults, applied before any per-call options. Sessions
// are cheap (two words plus the defaults) and need no teardown; drop
// them when done.
func (p *Pool) Session(defaults ...rmi.CallOption) *Session {
	return &Session{pool: p, opts: defaults}
}

// Close closes every pooled client. In-flight calls fail with
// rmi.ErrClientClosed.
func (p *Pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Session is one logical caller multiplexed onto a Pool: the front-door
// unit of tenancy. It carries default CallOptions — typically a priority
// class, a timeout and a label — and delegates each operation to the
// pool's least-loaded client for the target machine. A Session adds no
// per-call allocation of its own when no extra options are passed, so
// the zero-alloc small-call hot path survives the pooling layer.
type Session struct {
	pool *Pool
	opts []rmi.CallOption
}

// Pool returns the session's pool.
func (s *Session) Pool() *Pool { return s.pool }

// merge combines session defaults with per-call options. The common
// cases (either side empty) reuse the existing slice.
func (s *Session) merge(opts []rmi.CallOption) []rmi.CallOption {
	if len(opts) == 0 {
		return s.opts
	}
	if len(s.opts) == 0 {
		return opts
	}
	merged := make([]rmi.CallOption, 0, len(s.opts)+len(opts))
	merged = append(merged, s.opts...)
	return append(merged, opts...)
}

// Call invokes a method synchronously through the pool. Semantics are
// those of rmi.Client.Call, including decoder ownership.
func (s *Session) Call(ctx context.Context, ref rmi.Ref, method string, args rmi.ArgEncoder, opts ...rmi.CallOption) (*wire.Decoder, error) {
	return s.pool.ClientFor(ref.Machine).Call(ctx, ref, method, args, s.merge(opts)...)
}

// CallAsync begins a method invocation through the pool.
func (s *Session) CallAsync(ctx context.Context, ref rmi.Ref, method string, args rmi.ArgEncoder, opts ...rmi.CallOption) *rmi.Future {
	return s.pool.ClientFor(ref.Machine).CallAsync(ctx, ref, method, args, s.merge(opts)...)
}

// New constructs an object on machine m through the pool.
func (s *Session) New(ctx context.Context, m int, class string, args rmi.ArgEncoder, opts ...rmi.CallOption) (rmi.Ref, error) {
	return s.pool.ClientFor(m).New(ctx, m, class, args, s.merge(opts)...)
}

// NewAsync begins a construction on machine m through the pool; the
// future has failed already if the request could not leave.
func (s *Session) NewAsync(ctx context.Context, m int, class string, args rmi.ArgEncoder, opts ...rmi.CallOption) *rmi.Future {
	return s.pool.ClientFor(m).NewAsync(ctx, m, class, args, s.merge(opts)...)
}

// Delete destroys a remote object through the pool.
func (s *Session) Delete(ctx context.Context, ref rmi.Ref, opts ...rmi.CallOption) error {
	return s.pool.ClientFor(ref.Machine).Delete(ctx, ref, s.merge(opts)...)
}

// Ping round-trips an empty frame to machine m through the pool.
func (s *Session) Ping(ctx context.Context, m int, opts ...rmi.CallOption) error {
	return s.pool.ClientFor(m).Ping(ctx, m, s.merge(opts)...)
}

// Stat returns machine m's object counts through the pool.
func (s *Session) Stat(ctx context.Context, m int) (live, total uint64, err error) {
	return s.pool.ClientFor(m).Stat(ctx, m)
}
