package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
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

// TestSlowBodyDisconnected: a client that sends its headers and half a
// generate request body and then stalls must get an error or be
// disconnected once bodyReadTimeout passes, instead of holding its
// connection (and handler goroutine) forever.
func TestSlowBodyDisconnected(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, serverOptions{})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := tinyBody(1, 1)
	half := body[:len(body)/2]
	if _, err := fmt.Fprintf(conn, "POST /v1/generate HTTP/1.1\r\nHost: coldd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), half); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(bodyReadTimeout + 5*time.Second))
	// ReadAll returns without error once the server closes the connection.
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection with a half-sent body still open after %v: %v (read %q)", time.Since(start).Round(time.Second), err, resp)
	}
	if waited := time.Since(start); waited < bodyReadTimeout/2 {
		t.Fatalf("answered after %v, before the %v body timeout: %q", waited, bodyReadTimeout, resp)
	}
	if len(resp) > 0 && !strings.HasPrefix(string(resp), "HTTP/1.1 400") {
		t.Fatalf("want a 400 response or a bare disconnect, got %q", resp)
	}
}
