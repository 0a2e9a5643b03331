// Package debugserver is the -debug endpoint shared by the pnmlive and
// pnmserve commands: net/http/pprof plus an obs registry published through
// expvar under the "pnm" key, on an address of the operator's choosing.
package debugserver

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pnm/internal/obs"
)

// shutdownTimeout bounds how long Shutdown waits for in-flight requests.
const shutdownTimeout = time.Second

// current is the registry the expvar "pnm" variable reads. The variable
// can only be published once per process, while a command's run function
// may execute several times under test, so the published closure
// indirects through this pointer.
var (
	publishOnce sync.Once
	current     atomic.Pointer[obs.Registry]
)

// Server is a running debug endpoint.
type Server struct {
	srv      *http.Server
	addr     net.Addr
	serveErr chan error
}

// Start points the expvar "pnm" variable at reg and serves
// http.DefaultServeMux (pprof and expvar) on addr. The listener is bound
// before Start returns, so a bad address fails the caller up front.
func Start(addr string, reg *obs.Registry) (*Server, error) {
	current.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("pnm", expvar.Func(func() any { return current.Load().Map() }))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv:      &http.Server{Handler: http.DefaultServeMux},
		addr:     ln.Addr(),
		serveErr: make(chan error, 1),
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ and /debug/vars\n", s.addr)
	return s, nil
}

// Addr is the bound listen address.
func (s *Server) Addr() net.Addr { return s.addr }

// Shutdown stops accepting connections and lets in-flight handlers finish,
// waiting at most shutdownTimeout. It returns the first error from either
// the shutdown or the serve loop.
func (s *Server) Shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-s.serveErr; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
