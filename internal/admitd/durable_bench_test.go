package admitd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/client"
)

// BenchmarkDurableAlways measures the always tier, which no repo
// benchmark workload runs: 16 sessions write concurrently under
// -fsync always, each op one admit or the removal of the task admitted
// before it, so every op is a logged mutation whose ack waits for its
// covering fsync. It reports fsyncs/op beside ns/op: below 1 when
// concurrent drains share fsyncs.
func BenchmarkDurableAlways(b *testing.B) {
	const sessions = 16
	srv, err := New(Config{DataDir: b.TempDir(), Fsync: "always", CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	c := client.InProcess(srv)
	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
		if _, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: names[i], Cores: 8, Policy: "fp"}); err != nil {
			b.Fatal(err)
		}
	}
	var ops atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	before := srv.store.plane.stats().Fsyncs
	b.ResetTimer()
	for _, name := range names {
		wg.Add(1)
		go func(sess *client.Session) {
			defer wg.Done()
			for id := int64(1); ops.Add(1) <= int64(b.N); id++ {
				var err error
				if id%2 == 1 {
					var v api.Verdict
					v, err = sess.Admit(ctx, api.AdmitRequest{Task: api.Task{
						ID: id, WCETNs: 1_000_000, PeriodNs: 100_000_000, DeadlineNs: 100_000_000, Priority: 1,
					}})
					if err == nil && !v.Admitted {
						err = fmt.Errorf("task %d rejected", id)
					}
				} else {
					_, err = sess.Remove(ctx, id-1)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c.Session(name))
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(srv.store.plane.stats().Fsyncs-before)/float64(b.N), "fsyncs/op")
}
