package telemetry

import (
	"net/http"
	"net/http/pprof"
)

// RegisterPprof mounts the stdlib /debug/pprof handlers on mux so any
// server exposing a telemetry registry also exposes CPU, heap, mutex,
// and goroutine profiling.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
