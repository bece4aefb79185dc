package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// AdminConfig configures the admin HTTP surface.
type AdminConfig struct {
	// Addr is the listen address (":9301", "127.0.0.1:0", ...). Required.
	Addr string
	// Telemetry supplies /metrics and /debug/trace. Required.
	Telemetry *Telemetry
	// Healthz, when set, decides /healthz: nil error is 200 "ok", an error
	// is 503 with the message. Unset always reports ok.
	Healthz func() error
	// HealthDetail, when set, turns the 200 /healthz body into JSON:
	// {"status":"ok"} merged with the returned map (membership epoch, ring
	// fingerprint, peer count, ...). Unset keeps the plain "ok" body.
	HealthDetail func() map[string]any
	// Info is served as JSON on / (node identity, addresses, build info).
	Info map[string]string
	// Routes, when set, mounts extra handlers on the admin mux (e.g. the
	// node's membership API) alongside the built-in surfaces. Patterns
	// must not collide with the built-ins.
	Routes map[string]http.Handler
}

// Admin is a running admin HTTP server. It is deliberately separate from
// the node's service sockets: operators scrape and profile on a loopback or
// management address without touching the ICP/fetch ports.
type Admin struct {
	srv *http.Server
	ln  net.Listener
}

// ServeAdmin binds cfg.Addr and serves the admin surface until Close:
//
//	/metrics          Prometheus text exposition of the registry
//	/healthz          liveness/readiness probe (JSON with HealthDetail)
//	/debug/trace      JSON dump of the request-trace ring (?trace= filters
//	                  to one group-wide trace ID)
//	/debug/placement  JSON dump of the placement-decision audit log
//	                  (?trace= and ?verdict= filter)
//	/debug/pprof/     CPU, heap, goroutine, ... profiles
func ServeAdmin(cfg AdminConfig) (*Admin, error) {
	if cfg.Telemetry == nil {
		return nil, errors.New("obs: admin server needs telemetry")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %q: %w", cfg.Addr, err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Telemetry.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Healthz != nil {
			if err := cfg.Healthz(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		if cfg.HealthDetail != nil {
			body := map[string]any{"status": "ok"}
			for k, v := range cfg.HealthDetail() {
				body[k] = v
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(body)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = cfg.Telemetry.Traces.WriteJSON(w, r.URL.Query().Get("trace"))
	})
	mux.HandleFunc("/debug/placement", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		q := r.URL.Query()
		_ = cfg.Telemetry.Placement.WriteJSON(w, q.Get("trace"), q.Get("verdict"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range cfg.Routes {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(cfg.Info)
	})

	a := &Admin{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, ln: ln}
	go func() { _ = a.srv.Serve(ln) }()
	return a, nil
}

// Addr returns the bound address (useful with ":0").
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the server immediately.
func (a *Admin) Close() error { return a.srv.Close() }
