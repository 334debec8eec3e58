// Package lib is the exports check's fixture: of its exports, the check
// must flag Uncalled, OnlyTested and Dead.Len, of its handles dead and
// deadOp, and of its by-name calls the two passed a constant.
package lib

import "fixture/internal/rmi"

// Uncalled has no caller at all.
func Uncalled() int { return 1 }

// OnlyTested is called only by lib_test.go.
func OnlyTested() int { return 2 }

// Called is called by cmd/user. Of the two methods it names by name, the
// check accepts live's handle's Name() and flags the constant; it flags
// the class named by a constant too.
func Called() string {
	rmi.Call(live.Name())
	rmi.Call("dead")
	rmi.New("lib.Cell")
	return live.Name() + liveOp.Name()
}

// live and liveOp are referenced by Called; dead and deadOp only by their
// declarations and a test.
var (
	live   = rmi.Declare("live")
	dead   = rmi.Declare("dead")
	liveOp = rmi.DeclareOp[int, string]("liveOp")
	deadOp = rmi.DeclareOp[int, string]("deadOp")
)

// Err is an error type; errors.Is calls its Is method.
type Err struct{}

func (Err) Error() string { return "err" }

// Is is exempt: the standard library calls it through an interface.
func (Err) Is(target error) bool { return target == Err{} }

// Live and Dead each have a Len: cmd/user calls Live's, and a call of
// one is no call of the other.
type Live struct{}
type Dead struct{}

func (Live) Len() int { return 4 }
func (Dead) Len() int { return 5 }

// Box's Size is reached only through an interface cmd/user calls.
type Box struct{}

func (Box) Size() int { return 6 }
