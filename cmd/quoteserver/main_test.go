package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveLocal runs newHTTPServer on a loopback port and returns its
// address; the server is closed when the test ends.
func serveLocal(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// A client that stops halfway through its request header is
// disconnected after readHeaderTimeout, while a well-formed request on
// the same server is answered.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	addr := serveLocal(t)

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("well-formed request answered %q", body)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: quotes\r\nX-Partial: "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	n, err := conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled header", elapsed)
	}
	if err == nil {
		t.Fatalf("server answered %d bytes to a half-sent header", n)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}

// A header beyond maxHeaderBytes is refused with 431.
func TestOversizedHeaderIsRefused(t *testing.T) {
	addr := serveLocal(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := "GET / HTTP/1.1\r\nHost: quotes\r\nX-Big: " + strings.Repeat("a", 2*maxHeaderBytes) + "\r\n\r\n"
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		io.WriteString(conn, req) // fails once the server hangs up
	}()
	defer func() {
		conn.Close()
		<-sent
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header answered %s", resp.Status)
	}
}

func TestServerLimitsAreSet(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout < srv.ReadHeaderTimeout ||
		srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("server limits: header %v, read %v, idle %v, max header %d bytes, write %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.MaxHeaderBytes, srv.WriteTimeout)
	}
}
