package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// Server exposes the telemetry surfaces over HTTP:
//
//	/metrics      Prometheus text exposition of the registry
//	/healthz      JSON from the health function (flowgraph Graph.Health)
//	/trace        JSON of the tracer's recent packet traces, newest first;
//	              ?n=K keeps the newest K, ?failed=1 keeps only finished
//	              traces whose terminal verdict was a failure
//	/dump         POST triggers the registered flight-recorder dumper and
//	              returns the artifact path (404 until SetDumper is called)
//	/debug/pprof  the standard runtime profiles
//
// The zero value is not usable; construct with NewServer. A Server with a
// nil registry, tracer, or health function still serves every endpoint
// (empty exposition, {} health, [] traces) so wiring stays unconditional.
type Server struct {
	reg    *Registry
	tracer *Tracer
	health func() any

	// ShutdownTimeout bounds how long Close waits for in-flight handlers
	// to drain before abandoning them. Zero means the 2s default; set
	// before Close (typically right after NewServer).
	ShutdownTimeout time.Duration

	mu     sync.Mutex
	ln     net.Listener
	hs     *http.Server
	cancel context.CancelFunc // ends every request context of hs
	closed bool
	extra  map[string]http.Handler
	dumper func(reason string) (string, error)
}

// Handle mounts an extra handler on the server's mux — the seam the
// streaming hub (/stream) and the control API (/api/) use so obs stays
// decoupled from the packages that implement them. Patterns follow
// http.ServeMux semantics. Call before Listen; a pattern registered twice
// keeps the latest handler.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.extra == nil {
		s.extra = make(map[string]http.Handler)
	}
	s.extra[pattern] = h
}

// SetDumper registers the hook behind POST /dump — typically a flight
// recorder's on-demand Dump. Until set, /dump answers 404.
func (s *Server) SetDumper(d func(reason string) (string, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dumper = d
}

// NewServer returns a server over the given telemetry roots. health may be
// nil; when set it is called per /healthz request and its result JSON
// encoded (the flowgraph wires Graph.Health here).
func NewServer(reg *Registry, tracer *Tracer, health func() any) *Server {
	return &Server{reg: reg, tracer: tracer, health: health}
}

// Handler returns the route mux, for tests and for embedding into an
// existing server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteProm(w, s.reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any = map[string]any{}
		if s.health != nil {
			v = s.health()
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		traces := s.tracer.Snapshots()
		if traces == nil {
			traces = []TraceSnapshot{}
		}
		q := r.URL.Query()
		if q.Get("failed") == "1" {
			kept := traces[:0]
			for _, t := range traces {
				if t.Done && !t.OK {
					kept = append(kept, t)
				}
			}
			traces = kept
		}
		if nStr := q.Get("n"); nStr != "" {
			n, err := strconv.Atoi(nStr)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad n=%q: want a non-negative integer", nStr), http.StatusBadRequest)
				return
			}
			if n < len(traces) {
				traces = traces[:n] // snapshots are newest-first
			}
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, traces)
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		s.mu.Lock()
		dumper := s.dumper
		s.mu.Unlock()
		if dumper == nil {
			http.Error(w, "no flight recorder configured", http.StatusNotFound)
			return
		}
		reason := r.URL.Query().Get("reason")
		if reason == "" {
			reason = "manual"
		}
		file, err := dumper(reason)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, map[string]string{"file": file, "reason": reason})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	s.mu.Unlock()
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Listen binds addr and starts serving in a background goroutine, returning
// the bound address (useful with port 0). Listen after Close fails rather
// than resurrecting a server the caller already tore down — the guarantee
// that makes a Close racing a Listen safe: whichever order the two land in,
// no listener survives.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %q: %w", addr, err)
	}
	// Build the mux before taking the state lock: Handler itself locks mu
	// to copy the extra routes.
	handler := s.Handler()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("obs: listen %q: server already closed", addr)
	}
	if s.hs != nil {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("obs: listen %q: server already listening", addr)
	}
	base, cancel := context.WithCancel(context.Background())
	s.ln, s.cancel = ln, cancel
	s.hs = &http.Server{Handler: handler, BaseContext: func(net.Listener) context.Context { return base }}
	hs := s.hs
	s.mu.Unlock()
	go func() {
		// ErrServerClosed and accept-after-Close errors are the normal
		// shutdown path; anything the operator needs shows up on scrape.
		_ = hs.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Close stops the listener and drains in-flight handlers. It first cancels
// every request's context, so handlers that wait on it (a /stream
// subscriber, a long /debug/pprof profile) return at once. New connections
// are then refused, while active requests that ignore their context (a
// scrape mid-exposition, a /dump writing its artifact) get up to
// ShutdownTimeout to complete before being cut off. Idempotent and
// race-safe: Close without a prior Listen is a no-op that still poisons the
// server (a later Listen fails), concurrent Closes each return nil once the
// shutdown has happened, and a Close racing a Listen leaves no listener
// behind whichever wins.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	hs, cancel := s.hs, s.cancel
	s.hs, s.ln, s.cancel = nil, nil, nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	cancel()
	timeout := s.ShutdownTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := hs.Shutdown(ctx)
	if err == nil {
		return nil
	}
	// Handlers outlived the deadline (or Shutdown was interrupted): fall
	// back to the abrupt close so Close always releases the port.
	if cerr := hs.Close(); cerr != nil {
		return cerr
	}
	return err
}
