// Package lib is the exports check's fixture: four exports, of which the
// check must flag Uncalled and OnlyTested.
package lib

// Uncalled has no caller at all.
func Uncalled() int { return 1 }

// OnlyTested is called only by lib_test.go.
func OnlyTested() int { return 2 }

// Called is called by cmd/user.
func Called() int { return 3 }

// Err is an error type; errors.Is calls its Is method.
type Err struct{}

func (Err) Error() string { return "err" }

// Is is exempt: the standard library calls it through an interface.
func (Err) Is(target error) bool { return target == Err{} }
