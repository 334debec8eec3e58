//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a timerfd read through the runtime's poller. time.Sleep
// will not do for an open loop: an idle processor waits in epoll with its
// timeout rounded up to a millisecond, so sub-millisecond sleeps overshoot
// by about one (measured: p50 1 ms, against 25 µs this way).
type sleeper struct {
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d.
func (s *sleeper) sleep(d time.Duration) error {
	// struct itimerspec: the interval, then the first expiry.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
