package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the -serve listener must bound how long a
// client may take to send its headers and how long an idle keep-alive
// connection stays open, or a slow client pins a connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v; a write timeout would cut long SSE streams", srv.WriteTimeout)
	}
}
