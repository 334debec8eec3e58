// Package persist implements the paper's persistent processes (§5):
// objects that outlive their creator, are destroyed only by an explicit
// destructor call, can be deactivated (state saved, process terminated)
// and reactivated on demand, and are reachable through symbolic object
// addresses in the style of the Data Access Protocol —
//
//	PageDevice * page_device = "http://data/set/PageDevice/34";
//
// Three pieces:
//
//   - Address: the symbolic object address ("oop://data/set/PageDevice/34").
//   - NameService: a directory process mapping addresses to remote
//     pointers, so any client can find a persistent process.
//   - Store: a per-machine process that passivates local objects
//     (serializes their state through the Persistable interface and
//     terminates the process) and activates them again later.
//
// The paper leaves the runtime policy ("activating and de-activating
// processes, as needed") to future research; here activation is explicit,
// and the Manager helper composes the two processes into the use pattern
// the paper sketches: resolve an address, and if the process is not live,
// activate it from its stored state.
package persist

import (
	"fmt"
	"strings"
)

// Scheme is the URI scheme of symbolic object addresses.
const Scheme = "oop"

// Address is a symbolic object address: oop://<namespace>/<path>.
type Address struct {
	Namespace string // logical data-set or service ("data")
	Path      string // object path within the namespace ("set/PageDevice/34")
}

// ParseAddress parses "oop://namespace/path/elements".
func ParseAddress(s string) (Address, error) {
	prefix := Scheme + "://"
	if !strings.HasPrefix(s, prefix) {
		return Address{}, fmt.Errorf("persist: address %q lacks %q prefix", s, prefix)
	}
	rest := s[len(prefix):]
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 || slash == len(rest)-1 {
		return Address{}, fmt.Errorf("persist: address %q needs namespace and path", s)
	}
	a := Address{Namespace: rest[:slash], Path: rest[slash+1:]}
	if strings.Contains(a.Path, "//") || strings.HasSuffix(a.Path, "/") {
		return Address{}, fmt.Errorf("persist: malformed path in %q", s)
	}
	return a, nil
}

// MustParseAddress is ParseAddress that panics on error (tests, literals).
func MustParseAddress(s string) Address {
	a, err := ParseAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the canonical form.
func (a Address) String() string {
	return Scheme + "://" + a.Namespace + "/" + a.Path
}
