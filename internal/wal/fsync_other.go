//go:build !unix

package wal

// Non-unix hosts have no cheap descriptor clone; Sync falls back to
// fsyncing under the log mutex.
func dupFD(fd uintptr) (int, bool) { return -1, false }

var fsyncFD = func(fd int) error { return nil }

func closeFD(fd int) {}
