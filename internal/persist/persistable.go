package persist

import (
	"fmt"
	"sync"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Persistable is implemented by server-side objects whose processes can be
// passivated and reactivated. SaveState and LoadState are the two halves
// of the "process representation" the paper's runtime stores (§5).
type Persistable interface {
	// SaveState serializes the object's state.
	SaveState(e *wire.Encoder) error
	// LoadState reconstructs the object's state on the machine described
	// by env (reacquiring machine resources such as disks).
	LoadState(env *rmi.Env, d *wire.Decoder) error
}

// Restorer creates an empty instance of a persistable class, ready for
// LoadState. Classes register one at init time alongside their rmi class
// registration.
type Restorer func() Persistable

var (
	restorersMu sync.RWMutex
	restorers   = make(map[string]Restorer)
)

// RegisterRestorable declares that the rmi class `class` can be
// reactivated, providing its empty-instance factory. Panics on duplicates
// (program structure error).
func RegisterRestorable(class string, r Restorer) {
	restorersMu.Lock()
	defer restorersMu.Unlock()
	if _, dup := restorers[class]; dup {
		panic(fmt.Sprintf("persist: duplicate restorer for %q", class))
	}
	restorers[class] = r
}

// lookupRestorer returns the factory for class.
func lookupRestorer(class string) (Restorer, bool) {
	restorersMu.RLock()
	defer restorersMu.RUnlock()
	r, ok := restorers[class]
	return r, ok
}
