package persist

import "oopp/internal/rmi"

// Ref returns the directory's remote pointer, for tests that hand the
// directory object to other services.
func (n *NameService) Ref() rmi.Ref { return n.ref }
