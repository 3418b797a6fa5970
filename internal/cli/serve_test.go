package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/admitd"
)

// TestServeSlowClientTimeouts pins the service listener's timeouts: a
// header, a full-read, a write and an idle deadline, the full read
// longer than the header read. Over a real listener with those
// deadlines, the test suite's largest batch (a body of 15 tasks with
// 64 KiB names, just under the 1 MiB body bound) and a /metrics scrape
// complete.
func TestServeSlowClientTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout != serveReadHeaderTimeout || s.ReadTimeout != serveReadTimeout ||
		s.WriteTimeout != serveWriteTimeout || s.IdleTimeout != serveIdleTimeout {
		t.Fatalf("timeouts: header %v, read %v, write %v, idle %v", s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout, s.IdleTimeout)
	}
	if s.ReadHeaderTimeout <= 0 || s.WriteTimeout <= 0 || s.IdleTimeout <= 0 || s.ReadTimeout <= s.ReadHeaderTimeout {
		t.Fatalf("want every deadline set and the full read longer than the header read: header %v, read %v, write %v, idle %v",
			s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout, s.IdleTimeout)
	}

	srv := newTestDaemon(t)
	base := "http://" + listen(t, newHTTPServer("", srv))
	hc := &http.Client{}
	post := func(path string, v any) []byte {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return roundTrip(t, hc, http.MethodPost, base+path, body)
	}
	post(api.PathSessions, api.CreateSessionRequest{Name: "big", Cores: 2})
	start := time.Now()
	lines := post(api.SessionOpPath("big", api.OpBatch), api.BatchRequest{Tasks: longNamedTasks(1, 15)})
	batchTook := time.Since(start)
	if n := bytes.Count(lines, []byte("\n")); n != 16 {
		t.Fatalf("largest batch: %d lines, want 15 verdicts and a summary:\n%.300s", n, lines)
	}
	start = time.Now()
	expo := roundTrip(t, hc, http.MethodGet, base+api.PathMetrics, nil)
	if !bytes.Contains(expo, []byte("admitd_http_requests_total")) {
		t.Fatalf("scrape: %.300s", expo)
	}
	t.Logf("largest batch %v, scrape %v (read deadline %v, write deadline %v)", batchTook, time.Since(start), serveReadTimeout, serveWriteTimeout)
}

// TestServeDisconnectsSlowLoris serves the daemon on a real loopback
// listener and trickles a request's headers one line at a time: a
// normal request on another connection meanwhile succeeds, and the
// server hangs up on the trickler at the header deadline. The deadline is shortened from
// serveReadHeaderTimeout so the test takes a second, not ten.
func TestServeDisconnectsSlowLoris(t *testing.T) {
	hs := newHTTPServer("", newTestDaemon(t))
	hs.ReadHeaderTimeout = 300 * time.Millisecond
	addr := listen(t, hs)

	// The server's header deadline starts once it has accepted the
	// connection, which can be before Dial returns here: timing from
	// after Dial could see the hang-up a little "early".
	start := time.Now()
	slow, closed := dialUntilClosed(t, addr, start)
	if _, err := io.WriteString(slow, "GET "+api.PathHealth+" HTTP/1.1\r\nHost: loris\r\n"); err != nil {
		t.Fatal(err)
	}
	// A normal request on another connection is served while the slow
	// client is still connected.
	healthOnNewConn(t, addr)
	took := trickle(t, slow, closed, "X-Trickle: 1\r\n", 50*time.Millisecond)
	if took < hs.ReadHeaderTimeout {
		t.Fatalf("slow client cut after %v, before the %v header deadline", took, hs.ReadHeaderTimeout)
	}
}

// TestServeCutsSlowBody sends a request's headers at once and then its
// body one byte per 100 ms: a normal request on another connection
// meanwhile succeeds, and the server hangs up on the trickler at the
// full-read deadline, shortened from serveReadTimeout so the test takes
// a second, not thirty.
func TestServeCutsSlowBody(t *testing.T) {
	hs := newHTTPServer("", newTestDaemon(t))
	hs.ReadTimeout = 500 * time.Millisecond
	addr := listen(t, hs)

	start := time.Now()
	slow, closed := dialUntilClosed(t, addr, start)
	if _, err := io.WriteString(slow, "POST "+api.PathSessions+" HTTP/1.1\r\nHost: slow\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	healthOnNewConn(t, addr)
	took := trickle(t, slow, closed, " ", 100*time.Millisecond)
	if took < hs.ReadTimeout {
		t.Fatalf("slow body cut after %v, before the %v read deadline", took, hs.ReadTimeout)
	}
}

// TestServeCutsSlowReader asks for a state response larger than the
// loopback socket buffers hold and never reads it: a normal request on
// another connection meanwhile succeeds, the server gives up on the
// stalled write at the write deadline (shortened from
// serveWriteTimeout), and the response the client finally reads is
// cut short.
func TestServeCutsSlowReader(t *testing.T) {
	srv := newTestDaemon(t)
	mustServe(t, srv, http.MethodPost, api.PathSessions, api.CreateSessionRequest{Name: "big", Cores: 2})
	for id := int64(1); id <= 45; id += 15 {
		mustServe(t, srv, http.MethodPost, api.SessionOpPath("big", api.OpBatch), api.BatchRequest{Tasks: longNamedTasks(id, 15)})
	}
	size := len(mustServe(t, srv, http.MethodGet, api.SessionPath("big"), nil)) // about 3 MB
	returned := make(chan time.Time, 1)
	hs := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.URL.Path == api.SessionPath("big") {
			returned <- time.Now()
		}
	}))
	hs.WriteTimeout = 500 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(boundedSendBuffers{ln}) //nolint:errcheck // closed below
	defer hs.Close()

	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Bounded socket buffers on both ends keep the kernels from
	// absorbing the response the test means to leave unread, whatever
	// the host's TCP autotuning limits.
	if err := conn.(*net.TCPConn).SetReadBuffer(256 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, "GET "+api.SessionPath("big")+" HTTP/1.1\r\nHost: stalled\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	healthOnNewConn(t, ln.Addr().String())
	select {
	case at := <-returned:
		if took := at.Sub(start); took < hs.WriteTimeout {
			t.Fatalf("stalled write abandoned after %v, before the %v write deadline", took, hs.WriteTimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server still writing to a client that stopped reading after 5s")
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil || n >= int64(size) {
		t.Fatalf("the stalled response completed: %d of %d bytes, err %v", n, size, err)
	}
	t.Logf("stalled client got %d of %d bytes", n, size)
}

// boundedSendBuffers caps the send buffer of every accepted connection.
type boundedSendBuffers struct{ net.Listener }

func (l boundedSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(256 << 10)
	}
	return c, err
}

// newTestDaemon is an in-memory admission daemon, closed at test end.
func newTestDaemon(t *testing.T) *admitd.Server {
	t.Helper()
	srv, err := admitd.New(admitd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// listen serves hs on a loopback port until test end and returns the
// address.
func listen(t *testing.T, hs *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln) //nolint:errcheck // closed at cleanup
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// dialUntilClosed connects to addr and reports, on the returned
// channel, how long after start the server closed the connection.
func dialUntilClosed(t *testing.T, addr string, start time.Time) (net.Conn, <-chan time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	closed := make(chan time.Duration, 1)
	go func() {
		// The server closes the connection (possibly after a 4xx); the
		// read then ends.
		io.Copy(io.Discard, conn) //nolint:errcheck // only the end matters
		closed <- time.Since(start)
	}()
	return conn, closed
}

// trickle writes chunk to conn every period until the server hangs up,
// and returns when that was; the test fails if it has not after 5 s.
func trickle(t *testing.T, conn net.Conn, closed <-chan time.Duration, chunk string, period time.Duration) time.Duration {
	t.Helper()
	tick := time.NewTicker(period)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case took := <-closed:
			return took
		case <-deadline:
			t.Fatal("slow client still connected after 5s")
		case <-tick.C:
			io.WriteString(conn, chunk) //nolint:errcheck // fails once the server hangs up
		}
	}
}

// healthOnNewConn requires a health check on a fresh connection to
// succeed.
func healthOnNewConn(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET "+api.PathHealth+" HTTP/1.1\r\nHost: ok\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal request: %s", resp.Status)
	}
}

// longNamedTasks returns n tiny tasks from ID first on, each named with
// the longest string a commit-log record holds (64 KiB - 1).
func longNamedTasks(first int64, n int) []api.Task {
	name := strings.Repeat("n", 1<<16-1)
	tasks := make([]api.Task, n)
	for i := range tasks {
		id := first + int64(i)
		tasks[i] = api.Task{ID: id, Name: name, WCETNs: 1_000, PeriodNs: 1_000_000_000,
			DeadlineNs: 1_000_000_000, Priority: int(id)}
	}
	return tasks
}

// mustServe runs one JSON request against h in process and returns
// the body of its 2xx answer.
func mustServe(t *testing.T, h http.Handler, method, path string, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// roundTrip sends one request over hc and returns the body of its 2xx
// answer.
func roundTrip(t *testing.T, hc *http.Client, method, url string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %s %s", method, url, resp.Status, out)
	}
	return out
}
