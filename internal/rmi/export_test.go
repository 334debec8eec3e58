package rmi

import (
	"sync/atomic"
	"testing"
)

// CountMemberRuns counts, until t ends, the collective members that run on
// a connection's reader, for the tests outside the package.
func CountMemberRuns(t *testing.T) *atomic.Int64 { return countMemberRuns(t) }
