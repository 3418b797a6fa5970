package client

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/api"
	"repro/internal/admitd"
	"repro/internal/telemetry"
)

// TestInProcessTraceIDs pins that a tracing server only reads the
// request's header: the in-process fast path sends the package's
// shared request header maps, so a server that stamped its trace ID
// into them would leak one ID into every later request and have
// concurrent requests write one map. Sequential requests must each
// get their own ID, the shared maps must stay as they were, and
// parallel requests must pass under -race.
func TestInProcessTraceIDs(t *testing.T) {
	var log bytes.Buffer
	srv, err := admitd.New(admitd.Config{Trace: true, EventLog: telemetry.NewEventLog(&log)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := InProcess(srv)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: "trace", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	var st api.State
	for i := 0; i < 3; i++ {
		if err := sess.StateInto(ctx, &st); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Try(ctx, api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(emptyReqHeader) != 0 || len(jsonReqHeader) != 1 || len(jsonReqHeader["Content-Type"]) != 1 {
		t.Fatalf("the server wrote into the shared request headers: %v / %v", emptyReqHeader, jsonReqHeader)
	}
	seen := make(map[string]bool)
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	for _, line := range lines {
		var ev struct{ Trace string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event %q: %v", line, err)
		}
		if ev.Trace == "" || seen[ev.Trace] {
			t.Fatalf("request logged with trace %q (empty or repeated) in %d events", ev.Trace, len(lines))
		}
		seen[ev.Trace] = true
	}
	if len(seen) != 7 {
		t.Fatalf("%d distinct trace IDs over 7 requests", len(seen))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st api.State
			for i := 0; i < 50; i++ {
				if err := sess.StateInto(ctx, &st); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(emptyReqHeader) != 0 {
		t.Fatalf("the server wrote into the shared request header: %v", emptyReqHeader)
	}
}
