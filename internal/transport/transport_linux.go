//go:build linux

package transport

import "syscall"

// peekEOF looks at the socket fd without waiting and without taking a
// byte off it, and reports whether it is at its end (the peer closed it)
// or broken (reset).
func peekEOF(fd uintptr) bool {
	var b [1]byte
	n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return err == nil && n == 0 || err != nil && err != syscall.EAGAIN && err != syscall.EINTR
}
