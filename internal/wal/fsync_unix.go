//go:build unix

package wal

import "syscall"

// dupFD clones a file descriptor so an fsync can run after the log
// mutex is released: fsync acts on the inode, not the descriptor, so
// the clone flushes everything written through the original — and
// stays valid even if the original is closed mid-sync. Appenders
// keep the mutex (and the single CPU) while the flush waits on the
// device.
func dupFD(fd uintptr) (int, bool) {
	d, err := syscall.Dup(int(fd))
	return d, err == nil
}

// fsyncFD is a variable so a test can hold an fsync in flight.
var fsyncFD = func(fd int) error { return syscall.Fsync(fd) }

func closeFD(fd int) { _ = syscall.Close(fd) }
