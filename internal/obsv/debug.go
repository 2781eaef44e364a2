package obsv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Debug HTTP endpoint. Every long-running binary mounts one behind its
// -debug-addr flag:
//
//	/metrics       registry snapshot (counters, gauges, histograms) as JSON
//	/trace/recent  most recent pipeline traces, newest first (?n=K limits)
//	/health        operator-supplied health document (cad3-rsu: broker
//	               liveness, degraded-mode counters)
//	/debug/pprof/  the standard net/http/pprof profiles
//
// The handlers read atomic snapshots; serving them never blocks the
// pipeline. See OBSERVABILITY.md for curl walkthroughs.

// DebugOptions configures a debug endpoint. Nil fields disable the
// corresponding route (it answers 404).
type DebugOptions struct {
	// Registry backs /metrics.
	Registry *Registry
	// Ring backs /trace/recent.
	Ring *TraceRing
	// Health builds the /health response body; it must return a
	// JSON-marshalable value. The handler wraps it with a status line and
	// timestamp.
	Health func() any
	// Now injects the clock for the /health timestamp. Nil selects
	// time.Now.
	Now func() time.Time
}

// NewDebugMux builds the debug route table.
func NewDebugMux(opts DebugOptions) *http.ServeMux {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	mux := http.NewServeMux()
	if opts.Registry != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, opts.Registry.Snapshot())
		})
	}
	if opts.Ring != nil {
		mux.HandleFunc("/trace/recent", func(w http.ResponseWriter, r *http.Request) {
			max := 64
			if s := r.URL.Query().Get("n"); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil || n <= 0 {
					http.Error(w, "bad n parameter", http.StatusBadRequest)
					return
				}
				max = n
			}
			writeJSON(w, map[string]any{"traces": opts.Ring.Recent(max)})
		})
	}
	if opts.Health != nil {
		mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, map[string]any{
				"status":  "ok",
				"atMicro": now().UnixMicro(),
				"detail":  opts.Health(),
			})
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// DebugServer is a running debug endpoint.
type DebugServer struct {
	srv  *http.Server
	addr net.Addr
}

// ServeDebug starts the debug endpoint on addr (e.g. "127.0.0.1:6060";
// port 0 picks a free port) and serves in a background goroutine. Close
// shuts it down.
func ServeDebug(addr string, opts DebugOptions) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obsv: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewDebugMux(opts)}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{srv: srv, addr: ln.Addr()}, nil
}

// Addr returns the bound address (useful with port 0).
func (d *DebugServer) Addr() net.Addr { return d.addr }

// Close stops the server immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }
