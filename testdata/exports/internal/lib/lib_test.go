package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 || dead.Name() != "dead" || deadOp.Name() != "deadOp" {
		t.Fatal("OnlyTested")
	}
}
