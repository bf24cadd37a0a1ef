// Command gpserve serves continuous graph-pattern queries over HTTP: load
// a data graph, register standing patterns, POST edge-update batches, and
// stream per-pattern match deltas to any number of subscribers via
// Server-Sent Events. The wire API is versioned under /v1 (see
// internal/serve for the endpoint table). Programs should use the typed
// SDK in gpm/client instead of raw HTTP.
//
// Usage:
//
//	gpserve -addr :8080
//	gpserve -addr :8080 -graph g.graph
//	gpserve -addr :8080 -journal /var/lib/gpserve
//	gpserve -addr :8080 -log-format json -slow-commit 250ms -pprof localhost:6060
//	gpserve -addr :8081 -follow http://leader:8080 -follow-lag-max 256
//
// A session with curl (text bodies; send Content-Type: application/json
// to use the JSON wire documents instead):
//
//	curl -X POST --data-binary @g.graph localhost:8080/v1/graph
//	curl -X PUT --data-binary @p.pattern 'localhost:8080/v1/patterns/watch?kind=auto'
//	curl -N localhost:8080/v1/patterns/watch/stream &
//	curl -X POST --data-binary $'insert 3 7\ndelete 7 3\n' localhost:8080/v1/updates
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/metricz
//	curl localhost:8080/v1/readyz
//
// Failures come back as one JSON envelope {"code", "message", "seq"?}
// with a stable machine-readable code. GET /v1/healthz (liveness) and
// GET /v1/readyz (readiness: registry open, journal accepting appends)
// serve container orchestration and the future follower mode.
//
// Observability: logs are structured (log/slog), one line per request with
// route, status, bytes, duration and (when present) the request's trace
// ID, plus lifecycle events (startup, recovery, shutdown); -log-format
// selects text or JSON. Commits slower than -slow-commit log a warning
// carrying the full per-stage breakdown (validate, network, repair,
// journal, publish) and, when the commit was sampled, its trace ID and
// span tree. GET /v1/metricz exposes the same telemetry as Prometheus text
// for scraping, GET /v1/tracez serves the recent commit traces
// (-trace-sample picks the sampling policy: off, always, ratio:F,
// slow:DUR), and -pprof ADDR serves net/http/pprof on a separate listener,
// kept off the public API surface.
//
// With -follow URL gpserve runs as a read-only replica of the leader at
// URL: it bootstraps from the leader's snapshot, tails its raw ΔG commit
// stream (which carries the leader's pattern registrations and removals
// in commit order), serves every read endpoint locally at the leader's own
// commit sequence numbers, and answers writes with 403
// {"code":"read_only", "leader":URL}. GET /v1/readyz reports 503 while bootstrapping,
// disconnected from the leader, or lagging by more than -follow-lag-max
// commits — put followers behind a load balancer keyed on readiness.
// -follow is incompatible with -journal and -graph: the leader owns
// durability and the world.
//
// With -journal DIR every commit (and pattern registration) is appended
// to a durable, checksummed log, and on startup gpserve recovers the
// graph, standing patterns and commit sequence from the latest snapshot
// plus the log tail — dropped SSE clients resume with Last-Event-ID even
// across the restart. Without -journal an in-memory ring still serves
// resumes, but nothing survives the process.
//
// gpserve shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, the registry closes (which ends every SSE stream, lets any
// in-flight commit drain, and fsyncs the journal), remaining connections
// get a bounded grace period, and the journal is closed last — after the
// HTTP server has drained — so no handler can race a torn tail record.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpm/internal/contq"
	"gpm/internal/follow"
	"gpm/internal/graph"
	"gpm/internal/journal"
	"gpm/internal/obs/trace"
	"gpm/internal/par"
	"gpm/internal/serve"
)

// ms renders a duration as fractional milliseconds for log fields — the
// same unit the metrics histograms use.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		gfile     = flag.String("graph", "", "optional graph file to load at startup")
		workers   = flag.Int("workers", 0, "join-repair worker goroutines per commit (0 = GOMAXPROCS)")
		grace     = flag.Duration("grace", 10*time.Second, "graceful-shutdown grace period")
		jdir      = flag.String("journal", "", "directory for the durable commit journal (empty = in-memory replay ring only)")
		jsnap     = flag.Uint64("journal-snapshot-every", 1024, "write a recovery snapshot (and compact the journal) every N commits")
		jring     = flag.Int("journal-ring", 4096, "recent commits kept in memory for hot stream resumes")
		jseg      = flag.Int64("journal-segment-bytes", 4<<20, "journal segment rotation threshold in bytes")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		slow      = flag.Duration("slow-commit", 500*time.Millisecond, "log a warning with the per-stage breakdown for commits slower than this (0 disables)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (separate listener; empty disables)")
		sample    = flag.String("trace-sample", "always", "commit tracing: off, always, ratio:F (deterministic by trace ID, 0..1), or slow:DUR (retain traces with a span at least DUR)")

		followURL    = flag.String("follow", "", "run as a read-only follower replicating the leader at this base URL")
		followLagMax = flag.Uint64("follow-lag-max", 1024, "report not-ready when trailing the leader by more than this many commits (0 = lag never gates readiness)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.Error("unknown -log-format (want text or json)", "got", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	par.SetDefaultWorkers(*workers)

	tcfg, err := trace.ParseSampling(*sample)
	if err != nil {
		fatal("bad -trace-sample", "got", *sample, "error", err)
	}
	tracer := trace.New(tcfg)

	regOpts := []contq.Option{contq.WithWorkers(*workers), contq.WithTracer(tracer)}
	if *slow > 0 {
		threshold := *slow
		regOpts = append(regOpts, contq.WithCommitObserver(func(ct contq.CommitTiming) {
			if ct.Total < threshold {
				return
			}
			args := []any{
				"seq", ct.Seq,
				"total_ms", ms(ct.Total),
				"validate_ms", ms(ct.Validate),
				"network_ms", ms(ct.Network),
				"repair_ms", ms(ct.Repair),
				"journal_ms", ms(ct.Journal),
				"publish_ms", ms(ct.Publish),
				"batches", ct.Batches,
				"updates", ct.Updates,
				"patterns", ct.Patterns,
			}
			// A sampled commit carries its traceparent: attach the trace ID
			// (the /v1/tracez lookup key) and the full span tree, so one log
			// line shows where inside the commit the time went.
			if sc, ok := trace.Parse(ct.Trace); ok {
				args = append(args, "trace_id", sc.TraceID.String())
				if snap, ok := tracer.Lookup(sc.TraceID.String()); ok {
					args = append(args, "spans", snap.Spans)
				}
			}
			logger.Warn("slow commit", args...)
		}))
	}

	var srv *serve.Server
	var jnl *journal.Journal
	var fl *follow.Follower
	recoverStart := time.Now()
	if *followURL != "" {
		if *jdir != "" {
			fatal("-follow is incompatible with -journal (followers replicate the leader's journal)")
		}
		if *gfile != "" {
			fatal("-follow is incompatible with -graph (followers bootstrap from the leader's snapshot)")
		}
		srv = serve.NewReadOnly(*followURL, regOpts...)
		fl = follow.New(srv, follow.Config{
			Leader: *followURL,
			MaxLag: *followLagMax,
			// Rebootstrapped registries must keep the worker/tracer/observer
			// setup of the placeholder one, or a resync would silently shed
			// the follower's observability.
			RegistryOptions: regOpts,
			Logger:          logger,
		})
		logger.Info("follower mode", "leader", *followURL, "lag_max", *followLagMax)
	} else if *jdir != "" {
		var err error
		jnl, err = journal.Open(*jdir,
			journal.WithSnapshotEvery(*jsnap),
			journal.WithRing(*jring),
			journal.WithSegmentBytes(*jseg))
		if err != nil {
			fatal("opening journal", "dir", *jdir, "error", err)
		}
		srv, err = serve.NewWithJournal(jnl, regOpts...)
		if err != nil {
			fatal("recovering from journal", "dir", *jdir, "error", err)
		}
	} else {
		srv = serve.New(regOpts...)
	}
	if fl == nil {
		nodes, edges, npats, seq := srv.Registry().GraphInfo()
		recovered := seq > 0 || nodes > 0 || npats > 0
		if jnl != nil && recovered {
			js := jnl.Stats()
			logger.Info("recovered",
				"dir", *jdir,
				"seq", seq,
				"patterns", npats,
				"nodes", nodes,
				"edges", edges,
				"segments", js.Segments,
				"journal_bytes", js.Bytes,
				"snapshot_seq", js.SnapshotSeq,
				"elapsed_ms", ms(time.Since(recoverStart)),
			)
		}

		if *gfile != "" {
			if jnl != nil && recovered {
				// The journal already holds a world — even one still at seq 0
				// (a POSTed graph or registered patterns with no commits yet);
				// -graph would wipe it.
				logger.Warn("journal has state; ignoring -graph (POST /graph to replace)",
					"seq", seq, "nodes", nodes, "patterns", npats, "graph", *gfile)
			} else {
				f, err := os.Open(*gfile)
				if err != nil {
					fatal("opening graph file", "file", *gfile, "error", err)
				}
				g, err := graph.Read(f)
				f.Close()
				if err != nil {
					fatal("parsing graph file", "file", *gfile, "error", err)
				}
				if err := srv.LoadGraph(g); err != nil {
					fatal("loading graph", "file", *gfile, "error", err)
				}
				logger.Info("graph loaded", "file", *gfile, "nodes", g.NumNodes(), "edges", g.NumEdges())
			}
		}
	}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: profiling endpoints
		// stay reachable when the main server is saturated and are never
		// exposed on the public address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           serve.AccessLog(srv, logger),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if fl != nil {
		// The replication loop runs until the signal context ends; its exit
		// needs no join — closing the registry below ends anything in flight.
		go fl.Run(ctx) //nolint:errcheck // only ever returns ctx.Err()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "journal", *jdir, "log_format", *logFormat)

	select {
	case err := <-errCh:
		fatal("listener failed", "error", err) // before any signal
	case <-ctx.Done():
	}
	stop() // a second signal kills the process immediately
	logger.Info("shutting down", "grace", grace.String())

	// Close the registry first: it waits for any in-flight commit, fsyncs
	// the journal, then cancels every subscription, which unblocks the SSE
	// handlers so Shutdown's connection drain below can actually finish.
	srv.Close()

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("forced shutdown", "error", err)
		httpSrv.Close() //nolint:errcheck // already exiting
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("server error", "error", err)
	}
	// The journal closes last — after the HTTP server has drained — so no
	// straggling handler can write past the final fsync (no torn tail).
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			logger.Warn("closing journal", "error", err)
		}
		logger.Info("journal closed", "seq", jnl.HeadSeq())
	}
	logger.Info("bye")
}
