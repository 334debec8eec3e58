package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 || dead.Name() != "dead" {
		t.Fatal("OnlyTested")
	}
}
