// Command closnetd serves scenario evaluation over HTTP: the
// internal/server stack (content-addressed result cache, singleflight
// coalescing, admission control) behind a plain JSON API.
//
// Usage:
//
//	closnetd                                  serve on localhost:8427
//	closnetd -addr localhost:0 -workers 4     ephemeral port, bounded pool
//	closnetd -cache 0 -timeout 2s             no cache, tight deadlines
//	closnetd -read-header-timeout 2s          drop clients slow to send headers
//
// Endpoints: POST /v1/evaluate, POST /v1/search?objective=lex|
// throughput|relative, POST /v1/doom (all take a codec.Scenario JSON
// body), POST /v1/batch (a {"op": ..., "items": [{"scenario": ...},
// ...]} envelope answered with the concatenated single-call bodies in
// request order), POST /v1/session (+ /v1/session/{id}/delta and
// /v1/session/{id}/close — stateful incremental evaluation), GET
// /healthz, GET /readyz, GET /v1/stats.
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight requests
// finish, new ones get fast 503s, then the listener closes.
//
// The shared observability flags of internal/obs (-trace, -metrics,
// -cpuprofile, -memprofile, -debug-addr) are available as on every
// closnet tool; -trace journals every request's spans, the server.request
// root last, and the drain's server.drain span under the run's root.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"closnet/internal/obs"
	"closnet/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "closnetd:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, args, stderr)
}

// serve runs the daemon until ctx is cancelled (by signal in main, by
// the test harness in tests), then drains and shuts down.
func serve(ctx context.Context, args []string, stderr io.Writer) error {
	fl := flag.NewFlagSet("closnetd", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		addr          = fl.String("addr", "localhost:8427", "listen address (port 0 picks an ephemeral port)")
		workers       = fl.Int("workers", 0, "max concurrent computations (0 = one per core)")
		queue         = fl.Int("queue", server.DefaultQueueDepth, "max requests waiting for a worker slot (0 = reject when the pool is full)")
		cache         = fl.Int("cache", server.DefaultCacheSize, "result cache size in entries (0 = caching disabled)")
		timeout       = fl.Duration("timeout", server.DefaultTimeout, "per-request compute deadline, which also bounds reading a request body (0 = none)")
		searchWorkers = fl.Int("search-workers", 1, "enumeration workers per /v1/search request")
		maxStates     = fl.Int("max-states", 0, "per-search state cap (0 = engine default)")
		maxSessions   = fl.Int("max-sessions", 0, "max concurrently open /v1/session sessions (0 = engine default)")
		sessionTTL    = fl.Duration("session-ttl", 0, "idle session lifetime before eviction (0 = engine default)")
		drainTimeout  = fl.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		// The connection limits bound what a slow or hostile client can
		// hold: headers dribbled past the timeout close the connection,
		// an idle keep-alive one is closed after idle-timeout, and headers
		// past max-header-bytes get a 431. Bodies are bounded in size by
		// the server's MaxBody.
		readHeaderTimeout = fl.Duration("read-header-timeout", 10*time.Second, "max time a client may take to send its request headers (0 = none)")
		idleTimeout       = fl.Duration("idle-timeout", 2*time.Minute, "max time an idle keep-alive connection is kept open (0 = none)")
		maxHeaderBytes    = fl.Int("max-header-bytes", 64<<10, "max size of a request's headers in bytes")
		ob                = obs.AddFlags(fl)
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	orun, err := ob.Start("closnetd", stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := orun.Close(); cerr != nil {
			fmt.Fprintln(stderr, "closnetd:", cerr)
		}
	}()

	srv, err := server.New(server.Options{
		Workers:       *workers,
		QueueDepth:    noneIfZero(*queue),
		CacheSize:     noneIfZero(*cache),
		Timeout:       noneIfZeroDuration(*timeout),
		SearchWorkers: *searchWorkers,
		MaxStates:     *maxStates,
		MaxSessions:   *maxSessions,
		SessionTTL:    *sessionTTL,
		Obs:           orun.Obs,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "closnetd: listening on http://%s\n", ln.Addr())
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "closnetd: draining")
	dctx, cancel := context.WithTimeout(orun.Context(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "closnetd: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-serveErr // http.ErrServerClosed after a clean Shutdown
	fmt.Fprintln(stderr, "closnetd: shutdown complete")
	return nil
}

// noneIfZero maps the CLI convention (0 disables) onto the Options
// convention (0 means default, negative disables).
func noneIfZero(v int) int {
	if v == 0 {
		return -1
	}
	return v
}

func noneIfZeroDuration(v time.Duration) time.Duration {
	if v == 0 {
		return -1
	}
	return v
}
