package serve_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"

	"givetake/internal/cluster"
	"givetake/internal/serve"
)

// TestListenAndServeReportsBindError is the regression test for the
// dropped-listen-error bug: when the listener fails (port already
// bound) while ctx cancellation races it, ListenAndServe used to return
// Shutdown's nil and the caller believed a server that never existed
// shut down cleanly. The server and the router share the shutdown
// path (serve.ServeAndDrain), so both must report the bind error.
func TestListenAndServeReportsBindError(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(t *testing.T, addr string) func(context.Context) error
	}{
		{"server", func(t *testing.T, addr string) func(context.Context) error {
			s, err := serve.New(serve.Config{Addr: addr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			return s.ListenAndServe
		}},
		{"router", func(t *testing.T, addr string) func(context.Context) error {
			r, err := cluster.New(cluster.Config{Addr: addr, Nodes: []string{"127.0.0.1:1"}})
			if err != nil {
				t.Fatal(err)
			}
			return r.ListenAndServe
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			listenAndServe := tc.new(t, ln.Addr().String())
			// canceled ctx: the select races the bind failure against shutdown
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := listenAndServe(ctx); err == nil {
				t.Fatal("bind conflict must surface as an error, not a clean shutdown")
			} else if errors.Is(err, http.ErrServerClosed) {
				t.Fatalf("got the graceful sentinel %v, want the bind error", err)
			}
		})
	}
}
