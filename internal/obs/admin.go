package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// AdminServer is the operator endpoint: /metrics (Prometheus text),
// /healthz, and the Go runtime's /debug/pprof handlers, on a dedicated
// listener separate from the trust-service port so operational traffic
// never competes with (or is confused for) protocol frames.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeAdmin starts the admin endpoint on addr (e.g. "127.0.0.1:0"),
// mounting the authorization audit ring at /debug/audit when audit is
// non-nil. The pprof handlers are mounted on this private mux explicitly —
// nothing is registered on http.DefaultServeMux.
func ServeAdmin(addr string, reg *Registry, audit *AuditLog) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	if audit != nil {
		mux.Handle("/debug/audit", audit.Handler())
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a := &AdminServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound admin address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the admin endpoint.
func (a *AdminServer) Close() error { return a.srv.Close() }
