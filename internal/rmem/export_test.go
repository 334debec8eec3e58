package rmem

import "oopp/internal/rmi"

// Ref returns the block's remote pointer, for tests that call it from
// other clients.
func (a *Float64Array) Ref() rmi.Ref { return a.ref }

// BlockGetRange is the block's getRange method, for tests that send it
// arguments the stub never would.
var BlockGetRange = blockGetRange
