package admitd

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/api"
	"repro/client"
)

// routeCount reads the request counter of the route named name.
func routeCount(t *testing.T, srv *Server, name string) int64 {
	t.Helper()
	eps := []*endpoint{&srv.routes.session}
	for _, e := range srv.routes.fixed {
		eps = append(eps, e)
	}
	for _, e := range srv.routes.ops {
		eps = append(eps, e)
	}
	for _, e := range eps {
		for _, rt := range []*route{e.get, e.post, e.del} {
			if rt != nil && rt.name == name {
				return rt.count.Value()
			}
		}
	}
	t.Fatalf("no route named %q", name)
	return 0
}

// TestRouteTable pins the route table in process and over TCP: every
// route reaches its handler, an unknown path answers 404 and a known
// path with another method 405 with Allow (net/http's bodies), HEAD
// is served by the GET routes, names with '/', '%', a space and
// non-ASCII reach the session the client names, the names "." and ".."
// are refused, and a non-canonical path answers 404.
func TestRouteTable(t *testing.T) {
	type reply struct {
		status int
		hdr    http.Header
		body   string
	}
	transports := []struct {
		name  string
		build func(t *testing.T, srv *Server) (func(method, path, body string) reply, *client.Client)
	}{
		{"inprocess", func(t *testing.T, srv *Server) (func(method, path, body string) reply, *client.Client) {
			return func(method, path, body string) reply {
				req := httptest.NewRequest(method, "http://admitd"+path, strings.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				return reply{rec.Code, rec.Header(), rec.Body.String()}
			}, client.InProcess(srv)
		}},
		{"tcp", func(t *testing.T, srv *Server) (func(method, path, body string) reply, *client.Client) {
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			c, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
			if err != nil {
				t.Fatal(err)
			}
			return func(method, path, body string) reply {
				req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return reply{resp.StatusCode, resp.Header, string(b)}
			}, c
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv := newTestServer(t, Config{})
			send, c := tr.build(t, srv)
			ctx := context.Background()

			// Every route, each through the table to its handler.
			s := api.PathSessions + "/r"
			task := `{"task":{"id":1,"wcet_ns":1000000,"period_ns":10000000,"priority":1}}`
			for _, rc := range []struct {
				method, path, body, route string
				status                    int
			}{
				{"POST", api.PathSessions, `{"name":"r","cores":2}`, "create", http.StatusCreated},
				{"GET", api.PathSessions, "", "list", http.StatusOK},
				{"GET", s, "", "state", http.StatusOK},
				{"POST", s + "/try", task, api.OpTry, http.StatusOK},
				{"POST", s + "/admit", task, api.OpAdmit, http.StatusOK},
				{"POST", s + "/remove", `{"id":1}`, api.OpRemove, http.StatusOK},
				{"POST", s + "/split", `{}`, api.OpSplit, http.StatusBadRequest},
				{"POST", s + "/commit", "", api.OpCommit, http.StatusConflict},
				{"POST", s + "/rollback", "", api.OpRollback, http.StatusConflict},
				{"POST", s + "/batch", `{"tasks":[` + task[8:len(task)-1] + `]}`, api.OpBatch, http.StatusOK},
				{"GET", s + "/stats", "", "session_stats", http.StatusOK},
				{"GET", s + "/audit", "", api.OpAudit, http.StatusBadRequest},
				{"GET", api.PathStats, "", "stats", http.StatusOK},
				{"GET", api.PathHealth, "", "health", http.StatusOK},
				{"GET", api.PathMetrics, "", "metrics", http.StatusOK},
				{"HEAD", s, "", "state", http.StatusOK},
				{"DELETE", s, "", "delete", http.StatusOK},
			} {
				before := routeCount(t, srv, rc.route)
				r := send(rc.method, rc.path, rc.body)
				if r.status != rc.status || routeCount(t, srv, rc.route) != before+1 {
					t.Fatalf("%s %s: HTTP %d (want %d), route %q not counted once: %s", rc.method, rc.path, r.status, rc.status, rc.route, r.body)
				}
				if r.hdr.Get(api.VersionHeader) != api.Version {
					t.Fatalf("%s %s: version header %q", rc.method, rc.path, r.hdr.Get(api.VersionHeader))
				}
				if rc.method == "HEAD" && tr.name == "tcp" && r.body != "" {
					t.Fatalf("HEAD %s: body %q", rc.path, r.body)
				}
			}

			// Unknown and non-canonical paths: 404 with net/http's body.
			for _, p := range []string{
				"/", "/nope", "/v1", "/v1/sessions/", "/v1/sessions/r/", "/v1/sessions/r/nope",
				"/v1/sessions/r/stats/x", "/v1/stats/", "/healthz/", "/v1/sessions/r%2F/stats/x",
				"//v1/stats", "/v1//stats", "/./healthz", "/v1/sessions//r", "/v1/sessions/./r",
				"/v1/sessions/r/../r", "/v1/sessions/r/./stats", "/v1/sessions/..", "/v1/sessions/.",
			} {
				if r := send("GET", p, ""); r.status != http.StatusNotFound || r.body != "404 page not found\n" {
					t.Fatalf("GET %s: HTTP %d %q, want 404", p, r.status, r.body)
				}
			}
			// A known path, another method: 405 and its methods.
			for _, rc := range []struct{ method, path, allow string }{
				{"PUT", api.PathSessions, "GET, HEAD, POST"},
				{"POST", s, "DELETE, GET, HEAD"},
				{"OPTIONS", s, "DELETE, GET, HEAD"},
				{"GET", s + "/admit", "POST"},
				{"HEAD", s + "/try", "POST"},
				{"POST", s + "/stats", "GET, HEAD"},
				{"DELETE", api.PathMetrics, "GET, HEAD"},
				{"POST", api.PathHealth, "GET, HEAD"},
			} {
				r := send(rc.method, rc.path, "")
				if r.status != http.StatusMethodNotAllowed || r.hdr.Get("Allow") != rc.allow {
					t.Fatalf("%s %s: HTTP %d Allow %q, want 405 %q", rc.method, rc.path, r.status, r.hdr.Get("Allow"), rc.allow)
				}
				if rc.method != "HEAD" && r.body != "Method Not Allowed\n" {
					t.Fatalf("%s %s: body %q", rc.method, rc.path, r.body)
				}
			}

			// Names that need escaping reach the session the client names,
			// through the SDK and through a raw request on its path.
			for i, name := range []string{"a/b", "100%", "a b", "αβ", "%2F", "..."} {
				sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: name, Cores: 2})
				if err != nil {
					t.Fatalf("create %q: %v", name, err)
				}
				if _, err := sess.Admit(ctx, api.AdmitRequest{Task: api.Task{ID: int64(10 + i), WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}}); err != nil {
					t.Fatalf("admit into %q: %v", name, err)
				}
				st, err := sess.State(ctx)
				if err != nil || st.Name != name || len(st.Tasks) != 1 || st.Tasks[0].ID != int64(10+i) {
					t.Fatalf("state of %q through the client: %+v %v", name, st, err)
				}
				r := send("GET", api.SessionPath(name), "")
				var raw api.State
				if err := json.Unmarshal([]byte(r.body), &raw); err != nil || r.status != http.StatusOK || raw.Name != name || len(raw.Tasks) != 1 {
					t.Fatalf("GET %s: HTTP %d %s", api.SessionPath(name), r.status, r.body)
				}
				if r := send("GET", api.SessionOpPath(name, api.OpStats), ""); r.status != http.StatusOK || !strings.Contains(r.body, `"tasks":1`) {
					t.Fatalf("GET %s: HTTP %d %s", api.SessionOpPath(name, api.OpStats), r.status, r.body)
				}
			}
			// A dot segment would be a session no path reaches: refused.
			for _, name := range []string{".", ".."} {
				var e *api.Error
				if _, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: name, Cores: 2}); !errors.As(err, &e) || e.Code != api.CodeBadRequest {
					t.Fatalf("create %q: %v, want %s", name, err, api.CodeBadRequest)
				}
			}
		})
	}
}

// BenchmarkInProcessTry prices one non-holding try through the
// in-process client: SDK encode, the route table, the fast codecs and
// the snapshot probe, on the session TestHandlerPathAllocFree seeds.
func BenchmarkInProcessTry(b *testing.B) {
	srv, err := New(Config{MaxSessions: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := client.InProcess(srv)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: "bench", Cores: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(1); i <= 12; i++ {
		core := int(i % 4)
		if _, err := sess.Admit(ctx, api.AdmitRequest{Task: benchTask(i), Core: &core}); err != nil {
			b.Fatal(err)
		}
	}
	req := api.AdmitRequest{Task: benchTask(1 << 40)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Try(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
