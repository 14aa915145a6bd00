package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHalfHeaderClientIsDropped: a client that opens a connection, sends
// the first lines of a request and then nothing is disconnected by the
// header deadline, not kept for ever; one that finishes its header on
// the same listener is served.
func TestHalfHeaderClientIsDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("whole request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("whole request answered %q", body)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: half\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before it hangs up; either way the read
	// side must reach EOF soon after the header deadline.
	conn.SetReadDeadline(start.Add(srv.ReadHeaderTimeout + 10*time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("half-header connection still open %v after the write: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < srv.ReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header deadline could have fired", waited, srv.ReadHeaderTimeout)
	}
}
