package master

import (
	"encoding/json"
	"net"
	"net/http"

	"pando/internal/proto"
)

// This file implements the HTTP step of the paper's bootstrap (Figure 7):
// "The HTTP connection is used to obtain the Worker code including the f
// function and eventually establish either a WebSocket or WebRTC
// connection." A volunteer opens the deployment URL, receives the
// proto.Invitation (our substitute for the browserified code bundle: the
// name of the registered function plus where and how to connect), and
// then joins over the named transport.

// Invitation is re-exported for convenience.
type Invitation = proto.Invitation

// ServeHTTPInfo serves the deployment invitation on ln until the listener
// closes. It returns immediately; the server runs on its own goroutines.
// The URL to share is "http://<ln addr>/".
func (m *Master[I, O]) ServeHTTPInfo(ln net.Listener, inv Invitation) *http.Server {
	if inv.Version == "" {
		inv.Version = proto.Version
	}
	if inv.Func == "" {
		inv.Func = m.cfg.FuncName
	}
	if inv.Batch == 0 {
		inv.Batch = m.cfg.batch()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(inv)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(m.Stats())
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv
}
