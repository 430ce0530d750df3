// Command flexos-serve runs the exploration service: a long-running
// HTTP daemon executing flexos-explore-shaped requests on the shared
// engine over one process-wide store-backed memo, with single-flight
// coalescing of identical concurrent requests (see internal/serve).
//
// Endpoints:
//
//	POST /v1/explore          JSON request (see internal/cli.Request);
//	                          answers a complete JSON report, or NDJSON
//	                          with {"stream": true}
//	GET  /healthz             liveness
//	GET  /statsz              serving statistics (coalescing, hit
//	                          rates, cluster dispatch counters)
//	POST /v1/cluster/join     worker registration (coordinator mode)
//	GET  /v1/cluster/members  fleet membership (coordinator mode)
//	GET  /v1/store/pull       store-sync log pages (any daemon)
//
// Usage:
//
//	flexos-serve -addr 127.0.0.1:8077 -cache .serve-store
//	curl -s http://127.0.0.1:8077/healthz
//	curl -s -X POST -d '{"scenario":"redis-get90"}' http://127.0.0.1:8077/v1/explore
//	curl -sN -X POST -d '{"app":"cross","stream":true}' http://127.0.0.1:8077/v1/explore
//	flexos-explore -remote http://127.0.0.1:8077 -scenario redis-get90
//
// Cluster mode turns N daemons into one logical engine. One daemon
// coordinates (-coordinator): it splits each request into disjoint
// shard sub-requests, places each on its own live worker (shard i on
// worker (r+i) mod n, r a hash of the request), merges the returned
// records into its store, and re-ranks locally — answering bytes
// identical to a single-node run at any worker count, including when
// a worker dies mid-request (its shard re-dispatches to the next live
// worker, bounded, and what no worker answers its own pass measures).
// Its pass asks the fleet on the first record its store lacks, so a
// request the store already covers reaches no worker. The others join it
// as workers (-join, with the URL they advertise back via
// -advertise); -pull keeps any daemon's store warm from a peer's:
//
//	flexos-serve -addr 127.0.0.1:8070 -coordinator -cache .coord-store
//	flexos-serve -addr 127.0.0.1:8071 -join http://127.0.0.1:8070 -advertise http://127.0.0.1:8071
//	flexos-serve -addr 127.0.0.1:8072 -join http://127.0.0.1:8070 -advertise http://127.0.0.1:8072 -pull http://127.0.0.1:8071
//	flexos-explore -remote http://127.0.0.1:8070 -scenario redis-get90
//
// The served report is byte-identical to what the same request run
// locally would print — flexos-explore -remote just relays it.
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight runs are
// canceled and the persistent store is flushed and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexos/internal/cluster"
	"flexos/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	workers := flag.Int("workers", 0, "engine workers per exploration for requests that do not name their own (<= 0: GOMAXPROCS)")
	maxFlights := flag.Int("max-flights", 0, "concurrent engine runs; excess requests queue (<= 0: GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "persistent result-store directory backing the shared memo (measurements survive restarts)")
	cacheRO := flag.Bool("cache-readonly", false, "open -cache read-only: load from the store, never write to it")
	coordinator := flag.Bool("coordinator", false, "coordinate a cluster: fan requests out to joined workers and merge byte-identically")
	fanout := flag.Int("fanout", 0, "shard sub-requests per coordinated request (<= 0: the live worker count)")
	joinURL := flag.String("join", "", "register with the coordinator at this base URL (worker mode) and keep re-announcing")
	advertise := flag.String("advertise", "", "base URL this daemon is reachable at, announced to the coordinator (required with -join)")
	pullURL := flag.String("pull", "", "peer base URL to sync store records from (default with -join: the coordinator)")
	pullInterval := flag.Duration("pull-interval", 2*time.Second, "store-sync pull period")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "coordinator health-probe period")
	callTimeout := flag.Duration("call-timeout", 2*time.Minute, "coordinator per-shard worker call timeout (0: none); a timed-out shard re-dispatches")
	flag.Parse()

	if *cacheRO && *cacheDir == "" {
		fatal(errors.New("-cache-readonly requires -cache"))
	}
	if *joinURL != "" && *advertise == "" {
		fatal(errors.New("-join requires -advertise: the coordinator needs a URL to dispatch back to"))
	}
	if *coordinator && *joinURL != "" {
		fatal(errors.New("-coordinator and -join are exclusive: a coordinator dispatches, a worker answers"))
	}

	cfg := serve.Config{
		Workers:       *workers,
		MaxFlights:    *maxFlights,
		CacheDir:      *cacheDir,
		CacheReadOnly: *cacheRO,
		SelfURL:       *advertise,
	}
	if *coordinator {
		cfg.Cluster = cluster.New(cluster.Config{
			Fanout:         *fanout,
			HealthInterval: *healthInterval,
			CallTimeout:    *callTimeout,
		})
		cfg.SelfURL = "http://" + *addr
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	// No WriteTimeout: NDJSON streams legitimately stay open for the
	// length of an exploration. Slowloris-style clients are bounded by
	// the header/body read deadlines instead.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	mode := "standalone"
	if *coordinator {
		mode = "coordinator"
	} else if *joinURL != "" {
		mode = "worker of " + *joinURL
	}
	fmt.Fprintf(os.Stderr, "flexos-serve: listening on %s (cache %q, %s)\n", *addr, *cacheDir, mode)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Worker mode: announce to the coordinator (idempotent heartbeat —
	// re-registers after a coordinator restart, resurrects this worker
	// after it was struck dead) and warm-start from a peer's store.
	if *joinURL != "" {
		go cluster.Announce(ctx, *joinURL, *advertise, *healthInterval, func(err error) {
			fmt.Fprintln(os.Stderr, "flexos-serve: announce:", err)
		})
		if *pullURL == "" {
			*pullURL = *joinURL
		}
	}
	if *pullURL != "" {
		srv.StartPull(*pullURL, *pullInterval)
	}

	select {
	case err := <-errc:
		srv.Close()
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "flexos-serve: shutting down")
	// Cancel in-flight explorations first so their subscribers get
	// their responses promptly and the HTTP drain below finishes fast,
	// instead of every handler riding out the whole grace period.
	srv.Abort()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "flexos-serve:", err)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexos-serve:", err)
	os.Exit(1)
}
