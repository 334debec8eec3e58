//go:build !linux

package transport

// peekEOF cannot look at a socket here: peerClosed reports false, and a
// closed peer is found out by the next read.
func peekEOF(fd uintptr) bool { return false }
