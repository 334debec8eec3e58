// Package serve is the high-fan-in front door of the OOPP runtime: the
// client-side machinery that lets thousands of logical callers share a
// handful of physical connections, and the workload/load-generation
// pieces used to prove the cluster degrades gracefully at saturation.
//
// The paper's model gives every remote object a server process that
// mediates its callers; this package supplies the missing inverse — a
// way for very many callers to reach those processes without paying one
// socket (and one server read loop) per caller.
//
// # Pieces
//
//   - Pool: a fixed set of rmi.Client instances over one transport. Each client
//     keeps at most one connection per machine, so a Pool of k clients
//     bounds the process at k sockets per target machine no matter how
//     many callers it serves. ClientFor picks the least-loaded client
//     for a target machine using the clients' live in-flight counters.
//   - Session: a logical client — a feather-weight handle carrying
//     default CallOptions (priority, timeout, label) that routes every
//     operation through the pool's pick. 10k sessions over a 4-client
//     pool is the intended shape.
//   - Work: a registered benchmark/test class used by the admission-control
//     tests, experiment E14 and cmd/opploadgen. Its methods are handles:
//     WorkEcho, the timed WorkSleep and WorkSpin, WorkWait/WorkOpen (a gate
//     for building precise queue shapes) and the peer hop WorkBind/WorkRelay.
//   - OpenLoop: an open-loop load generator. Arrivals follow the clock,
//     not the completions — the generator does not slow down when the
//     server does, which is what makes saturation visible instead of
//     self-masking (closed-loop generators measure their own backoff).
//
// Server-side admission control (bounded per-priority in-flight work,
// typed ErrOverloaded rejections with retry hints) lives in internal/rmi
// with the server it protects; this package is everything that stands in
// front of it.
package serve
