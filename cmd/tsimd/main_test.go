package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestHalfSentHeaderIsClosed plays a slowloris client: it sends half a
// request header and stops. The server must close the connection once
// the header timeout passes, not hold it and its goroutine open.
func TestHalfSentHeaderIsClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(headerTimeout + time.Second)); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns at EOF (or a reset) once the server closes.
	if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a half-sent header", time.Since(start).Round(time.Millisecond))
	}
}
