// Command wsd runs the simulation-as-a-service daemon: an HTTP/JSON API
// over the wavescalar exploration engine with a bounded worker pool,
// singleflight deduplication of identical in-flight runs, a shared
// content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	wsd                                      # listen on 127.0.0.1:8080
//	wsd -addr :9090 -workers 8 -queue 256    # bigger deployment
//	wsd -journal wsd.jsonl -resume           # warm restart from journal
//	wsd -cache-limit 10000                   # bound cache memory (LRU)
//
// The daemon's limits are server-wide: -queue bounds admitted jobs (a
// full queue answers 429 queue_full) and -timeout bounds every
// synchronous wait (504, the work stays queued and is cached).
//
// Endpoints:
//
//	POST /v1/runs        synchronous single simulation (cached, deduped)
//	POST /v1/sweeps      asynchronous design-space sweep -> job id
//	GET  /v1/jobs/{id}   job status, progress, results
//	DELETE /v1/jobs/{id} cancel a job
//	GET  /v1/designs     enumerate viable design points
//	GET  /v1/workloads   enumerate bundled workloads
//	GET  /healthz        liveness + queue/cache stats
//	GET  /metrics        Prometheus text exposition
//
// On SIGINT/SIGTERM the daemon drains gracefully: admissions stop (new
// work gets 503), in-flight simulations finish within -drain, results
// are journaled, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"wavescalar"
	"wavescalar/internal/cli"
	"wavescalar/internal/version"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth; a full queue rejects with 429")
	timeout := flag.Duration("timeout", 60*time.Second, "synchronous run request timeout")
	journalPath := flag.String("journal", "", "append completed cells to this JSONL journal")
	resume := flag.Bool("resume", false, "replay the journal at startup (warm restart)")
	cacheLimit := flag.Int("cache-limit", 0, "max cached cells, LRU-evicted (0 = unlimited)")
	par := flag.Int("parallel", 0, "concurrent simulations per sweep job (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 2*time.Minute, "graceful-shutdown drain deadline for in-flight simulations")
	scenarioStore := flag.String("scenario-store", "", "persist stored scenarios to this JSONL file (default <journal>.scenarios when -journal is set)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Line("wsd"))
		return
	}
	if *resume && *journalPath == "" {
		fail(fmt.Errorf("-resume requires -journal"))
	}
	if err := cli.NonNegative(flag.CommandLine, "workers", "cache-limit", "parallel"); err != nil {
		fail(err)
	}

	opts := []wavescalar.ServerOption{
		wavescalar.ServerQueueDepth(*queue),
		wavescalar.ServerRequestTimeout(*timeout),
	}
	if *workers > 0 {
		opts = append(opts, wavescalar.ServerWorkers(*workers))
	}
	if *cacheLimit > 0 {
		opts = append(opts, wavescalar.ServerCacheLimit(*cacheLimit))
	}
	if *par > 0 {
		opts = append(opts, wavescalar.ServerParallelism(*par))
	}
	if *journalPath != "" {
		opts = append(opts, wavescalar.ServerJournal(*journalPath, *resume))
	}
	store := *scenarioStore
	if store == "" && *journalPath != "" {
		store = *journalPath + ".scenarios"
	}
	if store != "" {
		opts = append(opts, wavescalar.ServerScenarioStore(store))
	}

	// Bind and serve before the (possibly long) warm-restart replay, so
	// orchestrators probing /healthz see a crisp 503 "starting" instead
	// of a connection refusal they cannot tell from a dead process. The
	// handler swaps to the real server once startup completes; the
	// parseable "listening" line prints only then.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	var handler atomic.Pointer[http.Handler] // starting stub, then the server
	starting := startingHandler()
	handler.Store(&starting)
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	srv, err := wavescalar.NewServer(opts...)
	if err != nil {
		fail(err)
	}
	if *resume {
		fmt.Fprintf(os.Stderr, "wsd: resumed %d journaled cells from %s\n", srv.Resumed(), *journalPath)
	}
	ready := http.Handler(srv)
	handler.Store(&ready)
	// Printed on stdout — after the handler swap, so scripts that parse
	// the actual port (when -addr ends in :0) can immediately talk to
	// the real API, not the starting stub.
	fmt.Printf("wsd: listening on http://%s\n", ln.Addr())

	shutdownDone := make(chan error, 1)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "wsd: %s: draining (deadline %s)\n", sig, *drain)
		// Drain the simulation pipeline while the HTTP server still
		// delivers results to waiting clients, then close the listener.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		if herr := httpSrv.Shutdown(context.Background()); err == nil {
			err = herr
		}
		shutdownDone <- err
	}()

	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	if err := <-shutdownDone; err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "wsd: drained, exiting")
}

// startingHandler answers every request with 503 {"status":"starting"}
// while the warm-restart replay (journal + scenario store) loads: the
// port is bound, the process is alive, the API is not up yet. Probes
// that poll /healthz for readiness keep failing until the real handler
// is swapped in; probes that only check liveness can distinguish this
// from a dead process.
func startingHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"starting"}`)
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsd:", err)
	os.Exit(1)
}
