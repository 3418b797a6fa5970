package cli

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/api"
	"repro/internal/admitd"
)

// TestServeSlowClientTimeouts pins the service listener's timeouts: a
// header deadline and an idle deadline, and no write deadline, which
// would cut the sweep and SSE streams.
func TestServeSlowClientTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout != serveReadHeaderTimeout || s.IdleTimeout != serveIdleTimeout || s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("timeouts: header %v, idle %v", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 || s.ReadTimeout != 0 {
		t.Fatalf("streams need no write or full-read deadline: write %v, read %v", s.WriteTimeout, s.ReadTimeout)
	}
}

// TestServeDisconnectsSlowLoris serves the daemon on a real loopback
// listener and trickles a request's headers one line at a time: a
// normal request on another connection meanwhile succeeds, and the
// server hangs up on the trickler at the header deadline. The deadline is shortened from
// serveReadHeaderTimeout so the test takes a second, not ten.
func TestServeDisconnectsSlowLoris(t *testing.T) {
	srv, err := admitd.New(admitd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := newHTTPServer("", srv)
	hs.ReadHeaderTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln) //nolint:errcheck // closed below
	defer hs.Close()

	// The server's header deadline starts once it has accepted the
	// connection, which can be before Dial returns here: timing from
	// after Dial could see the hang-up a little "early".
	start := time.Now()
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	closed := make(chan time.Duration, 1)
	go func() {
		// The server closes the connection (possibly after a 408); the
		// read then ends.
		io.Copy(io.Discard, slow) //nolint:errcheck // only the end matters
		closed <- time.Since(start)
	}()
	if _, err := io.WriteString(slow, "GET "+api.PathHealth+" HTTP/1.1\r\nHost: loris\r\n"); err != nil {
		t.Fatal(err)
	}
	// A normal request on another connection is served while the slow
	// client is still connected.
	conn, err := net.Dial("tcp", ln.Addr().String())
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

	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var took time.Duration
trickle:
	for {
		select {
		case took = <-closed:
			break trickle
		case <-tick.C:
			if time.Since(start) > 5*time.Second {
				t.Fatal("slow client still connected after 5s")
			}
			io.WriteString(slow, "X-Trickle: 1\r\n") //nolint:errcheck // fails once the server hangs up
		}
	}
	if took < hs.ReadHeaderTimeout {
		t.Fatalf("slow client cut after %v, before the %v header deadline", took, hs.ReadHeaderTimeout)
	}
}
