// Command pcmserver turns the replay engine into a long-running
// simulation service (ROADMAP item 1): it accepts replay and sweep
// jobs over HTTP, multiplexes them onto a bounded shared worker pool,
// streams live progress and periodic engine snapshots to clients over
// SSE, and persists every job's spec and results in an append-only
// JSONL store so runs survive restarts and stay queryable and
// comparable across days.
//
// Job results are bit-identical to a direct wlcrc.Replay of the same
// spec — the server changes how simulations are scheduled and served,
// never what they compute.
//
//	pcmserver -addr :8080 -data ./pcmdata -pool 4
//
// Endpoints (see internal/server):
//
//	POST   /v1/jobs             submit {"workload":"gcc","writes":10000,...}
//	GET    /v1/jobs/{id}        job status and results
//	GET    /v1/jobs/{id}/events live SSE progress + snapshots
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/results?scheme=  stored per-scheme rows across runs
//	GET    /v1/series/{name}    stored bench series
//	GET    /healthz, /metrics   liveness and Prometheus text metrics
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// running jobs are canceled through their contexts, and their partial
// snapshots are persisted as canceled records before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wlcrc/internal/jobs"
	"wlcrc/internal/server"
	"wlcrc/internal/store"
)

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers and an idle keep-alive connection is closed after
// idleTimeout, so slow or abandoned connections cannot pin server
// resources. There is deliberately no WriteTimeout: it would cut off
// long-lived SSE event streams.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcmserver: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		dataDir  = flag.String("data", "", "result store directory (empty = no persistence)")
		pool     = flag.Int("pool", 2, "jobs that run concurrently (each job parallelizes internally)")
		queueCap = flag.Int("queue", 64, "pending-job backlog beyond the running ones")
		snapshot = flag.Duration("snapshot-interval", time.Second, "pace of periodic SSE snapshot events")
		portFile = flag.String("port-file", "", "write the bound TCP port to this file once listening (for scripts and CI)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var st store.Store
	if *dataDir != "" {
		js, err := store.Open(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		st = js
		logger.Info("store open", "dir", *dataDir, "jobs", len(js.Jobs()))
	}

	mgr := jobs.NewManager(jobs.Config{
		Pool:             *pool,
		QueueCap:         *queueCap,
		Store:            st,
		SnapshotInterval: *snapshot,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	srv := &http.Server{
		Handler:           server.New(mgr, st, logger),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "pool", *pool, "queue", *queueCap)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received, shutting down")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	}

	// Graceful teardown order: stop accepting requests (bounded — SSE
	// clients of canceled jobs unblock when the jobs finish), then
	// cancel and drain running jobs so their partial snapshots persist,
	// then close the store.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mgr.Shutdown()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
		srv.Close()
	}
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Warn("store close", "err", err)
		}
	}
	logger.Info("bye")
}
