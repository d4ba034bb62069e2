// Command mdmd runs the MDM backend: the REST service that the original
// tool's Node.JS frontend talked to (paper §2.5), here self-contained.
//
// Usage:
//
//	mdmd [-addr :8085] [-data DIR | -seed] [-simulate]
//	     [-compact-interval D] [-source-timeout D] [-drain-timeout D]
//	     [-slow-query-threshold D] [-slow-query-log PATH]
//	     [-debug-addr ADDR]
//
//	-addr      listen address
//	-data      persistence directory; the ontology dataset lives in a
//	           segment store under DIR/ontology (immutable segments plus
//	           a write-ahead log; see docs/STORAGE.md). A mutation is on
//	           the log before it is acknowledged: it survives a crash of
//	           the process (kill -9), not a power cut — the log is not
//	           fsynced.
//	-seed      preload the paper's football use case. The seeded system
//	           is in-memory only (its wrappers are live closures), so
//	           -seed cannot be combined with -data.
//	-simulate  also start the simulated football REST provider and print
//	           its URL (endpoints for players/teams/leagues/countries)
//
// Storage engine knob (see internal/tdb and docs/STORAGE.md):
//
//	-compact-interval D   background storage maintenance tick: seals a
//	                      long log tail into a delta segment, and folds
//	                      the segments into one (leaving dead terms out
//	                      of the file) when they have grown enough
//	                      (default 1m; 0 disables; durability does not
//	                      depend on it)
//
// Federated execution knob (see internal/federate):
//
//	-source-timeout D     per-source fetch deadline (default 30s)
//
// The rest of federation is one fixed policy — fan-out 8, two retries
// with jittered backoff, a circuit breaker per source, concurrent walks
// sharing in-flight fetches; docs/ARCHITECTURE.md "Federation
// resilience" gives the reasons. A walk degrades instead of failing only
// when its client asks (?partial=1, mdmctl -partial).
//
// Observability knobs (see docs/OBSERVABILITY.md; Prometheus metrics
// are always on at GET /metrics on the API port):
//
//	-slow-query-threshold D  queries slower than D emit one structured
//	                      JSON line to the slow-query log (default
//	                      250ms; 0 logs every query)
//	-slow-query-log PATH  slow-query log file, size-rotated as
//	                      PATH → PATH.1 → PATH.2 (default: stderr)
//	-debug-addr ADDR      serve net/http/pprof on a separate listener
//	                      (e.g. localhost:6060); off by default and
//	                      kept off the API port on purpose
//
// Lifecycle:
//
//	-drain-timeout D      on SIGINT/SIGTERM, wait up to D for in-flight
//	                      requests (including streaming NDJSON walks) to
//	                      complete before exiting (default 10s)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdm"
	"mdm/internal/apisim"
	"mdm/internal/federate"
	"mdm/internal/obs"
	"mdm/internal/rest"
	"mdm/internal/usecase"
)

func main() {
	addr := flag.String("addr", ":8085", "listen address")
	dataDir := flag.String("data", "", "persistence directory (empty = in-memory)")
	seed := flag.Bool("seed", false, "preload the in-memory football demo fixture (not with -data)")
	simulate := flag.Bool("simulate", false, "start the simulated football provider")
	compactInterval := flag.Duration("compact-interval", time.Minute, "background storage maintenance tick (0 = disabled)")
	sourceTimeout := flag.Duration("source-timeout", federate.DefaultSourceTimeout, "per-source fetch deadline")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "in-flight request drain window on shutdown")
	slowThreshold := flag.Duration("slow-query-threshold", 250*time.Millisecond, "queries slower than this are written to the slow-query log")
	slowLogPath := flag.String("slow-query-log", "", "slow-query log file, size-rotated (empty = stderr)")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled)")
	flag.Parse()

	if *seed && *dataDir != "" {
		fmt.Fprintln(os.Stderr, "mdmd: -seed cannot be combined with -data: the seeded fixture is in-memory and is never written to the data directory")
		flag.Usage()
		os.Exit(2)
	}
	sys, err := buildSystem(*dataDir, *seed, mdm.StoreOptions{CompactInterval: *compactInterval})
	if err != nil {
		log.Fatalf("mdmd: %v", err)
	}
	sys.Federation().SourceTimeout = *sourceTimeout

	if *simulate {
		provider := apisim.NewFootball()
		defer provider.Close()
		log.Printf("mdmd: simulated football provider at %s", provider.URL())
		log.Printf("mdmd:   endpoints: /v1/players /v2/players /v1/teams /v1/leagues /v1/league-teams /v1/countries")
	}

	api := rest.NewServer(sys)
	if *slowLogPath != "" {
		slog, err := obs.NewSlowLog(*slowLogPath, *slowThreshold)
		if err != nil {
			log.Fatalf("mdmd: %v", err)
		}
		defer slog.Close()
		api.SlowLog = slog
	} else {
		api.SlowLog = obs.NewSlowLogWriter(os.Stderr, *slowThreshold)
	}

	// pprof stays off the API port: it leaks heap contents and stack
	// traces, so it only appears on an operator-chosen debug listener.
	if *debugAddr != "" {
		go func() {
			debugMux := http.NewServeMux()
			debugMux.HandleFunc("/debug/pprof/", pprof.Index)
			debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("mdmd: pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				log.Printf("mdmd: debug listener: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mdmd: listen: %v", err)
	}
	log.Printf("mdmd: listening on %s (seeded=%v, data=%q)", *addr, *seed, *dataDir)

	if err := serveWithDrain(ctx, srv, ln, *drainTimeout); err != nil {
		log.Fatalf("mdmd: serve: %v", err)
	}
	// Seals a persistent store's log tail; a no-op in memory.
	if err := sys.Close(); err != nil {
		log.Printf("mdmd: close: %v", err)
	}
}

// serveWithDrain serves on ln until ctx is canceled (SIGINT/SIGTERM),
// then drains: the listener closes immediately, but in-flight requests
// — including streaming NDJSON walks, whose request contexts
// http.Server.Shutdown deliberately does not cancel — get up to drain
// to complete. Requests still running after the window are aborted.
func serveWithDrain(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		log.Printf("mdmd: shutting down (draining up to %v)", drain)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain window expired with requests still running: cut them.
		_ = srv.Close()
		return nil
	}
	return nil
}

// buildSystem assembles the system. A data directory opens the
// persistent segment store. The seeded fixture stays in-memory: its
// wrappers are live closures that cannot be persisted.
func buildSystem(dataDir string, seed bool, opts mdm.StoreOptions) (*mdm.System, error) {
	if seed {
		f, err := usecase.New()
		if err != nil {
			return nil, err
		}
		return mdm.FromParts(f.Ont, f.Reg), nil
	}
	if dataDir != "" {
		sys, err := mdm.OpenWith(dataDir, opts)
		if err != nil {
			return nil, err
		}
		// The registry starts empty: wrappers are attached again by
		// re-POSTing them, which the release log answers with the release
		// it already holds.
		if n := len(sys.ReleaseLog()); n > 0 {
			log.Printf("mdmd: note: %d released wrappers are not attached; re-POST each to /api/wrappers (200, writes no release)", n)
		}
		return sys, nil
	}
	return mdm.New(), nil
}
