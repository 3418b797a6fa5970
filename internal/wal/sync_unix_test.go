//go:build unix

package wal

import (
	"sync"
	"testing"
	"time"
)

// holdFsync makes the log's next fsync block until release is called;
// entered is closed once it is in flight. Later fsyncs run unheld.
func holdFsync(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	real := fsyncFD
	in, gate := make(chan struct{}), make(chan struct{})
	var first, released sync.Once
	fsyncFD = func(fd int) error {
		held := false
		first.Do(func() { held = true })
		if held {
			close(in)
			<-gate
		}
		return real(fd)
	}
	release = func() { released.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		fsyncFD = real
	})
	return in, release
}

// syncAsync runs l.Sync on a goroutine and hands back its result.
func syncAsync(l *Log) <-chan error {
	c := make(chan error, 1)
	go func() { c <- l.Sync() }()
	return c
}

// TestSyncWaitsForCoveringFsync: a Sync whose bytes another Sync
// flushed returns only after that Sync's fsync completes, not as soon
// as it finds nothing left to write.
func TestSyncWaitsForCoveringFsync(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncGroup})
	defer l.Close()
	if _, err := l.Append("s", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	entered, release := holdFsync(t)
	first := syncAsync(l)
	<-entered
	second := syncAsync(l)
	select {
	case err := <-second:
		release()
		t.Fatalf("Sync returned (err %v) while the fsync covering its bytes was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	for _, c := range []<-chan error{first, second} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Fsyncs; got != 1 {
		t.Fatalf("%d fsyncs, want the one both Syncs share", got)
	}
}

// TestGroupSyncClosedLog: a Sync queued behind an in-flight fsync when
// the log closes reports the close instead of wedging, the in-flight
// fsync's caller still gets its result, and a later Sync errors.
func TestGroupSyncClosedLog(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncGroup})
	if _, err := l.Append("s", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	entered, release := holdFsync(t)
	first := syncAsync(l)
	<-entered
	if _, err := l.Append("s", 2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	second := syncAsync(l)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		queued := l.queued != nil
		l.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			release()
			t.Fatal("the second Sync never queued behind the in-flight fsync")
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("in-flight fsync: %v", err)
	}
	if err := <-second; err == nil {
		t.Fatal("a Sync queued across Close succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync on a closed log succeeded")
	}
}
