package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderDisconnected: a client that sends half a request header and
// then stalls must be disconnected once readHeaderTimeout passes, instead of
// holding its connection open forever. The server config must also keep an
// idle timeout and no write timeout (streamed ensembles run for as long as
// generation takes).
func TestSlowHeaderDisconnected(t *testing.T) {
	t.Parallel()
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.WriteTimeout != 0 || srv.IdleTimeout != idleTimeout {
		t.Fatalf("WriteTimeout %v IdleTimeout %v, want 0 and %v", srv.WriteTimeout, srv.IdleTimeout, idleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/generate HTTP/1.1\r\nHost: coldd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	// Copy returns nil once the server closes the connection.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection with a half-sent header still open after %v: %v", time.Since(start).Round(time.Second), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}
