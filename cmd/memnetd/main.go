// Command memnetd is the long-running simulation server: an HTTP/JSON-lines
// front end over the experiment registry. Clients submit simulation jobs,
// identical jobs are deduped through a content-addressed result cache, and
// results are byte-identical to the same sweep run via cmd/experiments.
//
// Usage:
//
//	memnetd                              # listen on localhost:8844
//	memnetd -addr :9000 -queue-cap 128 -cache-dir /var/cache/memnet
//	memnetd -par 8                       # worker-pool width per job
//	memnetd -admin localhost:8845        # pprof + metrics on a side listener
//
// Submit a job and wait for its result:
//
//	curl -sS -X POST localhost:8844/v1/run \
//	     -d '{"experiment":"fig7","scale":0.05}'
//
// Or queue it and stream progress:
//
//	curl -sS -X POST localhost:8844/v1/jobs -d '{"experiment":"fig14"}'
//	curl -sN localhost:8844/v1/jobs/<id>/events
//	curl -sS localhost:8844/v1/jobs/<id>/result
//	curl -sS localhost:8844/v1/jobs/<id>/profile   # with -profile
//	curl -sS -X DELETE localhost:8844/v1/jobs/<id> # cancel (cooperative)
//
// With -cache-dir set the server also keeps a durable job journal under
// <cache-dir>/journal and recovers queued/interrupted jobs after a crash
// or kill -9 (disable with -journal=false). -max-run caps any one job's
// wall-clock run time; -max-queue-delay sheds submissions with 503 +
// Retry-After once the estimated wait exceeds the bound.
//
// Watch it work:
//
//	curl -sS localhost:8844/metrics      # Prometheus text exposition
//	curl -sS localhost:8844/v1/readyz    # 503 once draining starts
//	go run ./cmd/memnetstat              # live one-line/tabular view
//
// SIGINT/SIGTERM drain gracefully: /v1/readyz flips to 503 immediately
// (healthz stays 200 — the liveness/readiness split), the in-flight job
// completes and is cached, and queued jobs are aborted.
//
// The -admin listener is deliberately separate from -addr: it exposes
// net/http/pprof (heap/CPU profiles, goroutine dumps), which does not
// belong on a client-facing port. It also re-serves /metrics and the
// health probes so a scraper can avoid the public listener entirely.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/par"
	"memnet/internal/serve"
	"memnet/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:8844", "listen address")
	adminAddr := flag.String("admin", "", "admin listen address for pprof + metrics (empty = disabled)")
	queueCap := flag.Int("queue-cap", 64, "max queued jobs before submissions are rejected")
	cacheDir := flag.String("cache-dir", "", "persist results in this directory (content-addressed; empty = memory only)")
	parFlag := flag.Int("par", 0, "worker-pool width per job (0 = MEMNET_PAR env or CPU count)")
	auditFlag := flag.Bool("audit", false, "check conservation invariants in every served run (results are byte-identical either way)")
	profileFlag := flag.Bool("profile", false, "collect a latency-attribution profile per run, served at /v1/jobs/{id}/profile (results are byte-identical either way)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "max wall-clock time to wait for the in-flight job at shutdown")
	journalFlag := flag.Bool("journal", true, "with -cache-dir: keep a durable job journal and recover queued/interrupted jobs after a crash")
	maxQueueDelay := flag.Duration("max-queue-delay", 0, "shed submissions with 503 + Retry-After once the estimated queue wait exceeds this (0 = disabled)")
	maxRun := flag.Duration("max-run", 0, "cancel any job running longer than this wall-clock time (0 = no ceiling)")
	flag.Parse()
	lg := telemetry.NewLogger(os.Stderr)
	fatal := func(msg string, args ...any) {
		lg.Error(msg, args...)
		os.Exit(1)
	}

	// Fail fast on an invalid explicit -par instead of silently falling
	// back to the default width.
	if *parFlag < 0 {
		fatal("-par must be a positive integer", "got", *parFlag)
	}
	if *parFlag > 0 {
		par.SetParallelism(*parFlag)
	}
	if *queueCap <= 0 {
		fatal("-queue-cap must be positive", "got", *queueCap)
	}
	runner := serve.RegistryRunner
	if *auditFlag {
		runner = func(spec *serve.JobSpec, configure exp.Configure) (string, error) {
			return serve.RegistryRunner(spec, func(cfg *core.Config, run string) {
				cfg.Audit = core.AuditOn
				configure(cfg, run)
			})
		}
	}

	reg := telemetry.NewRegistry()
	srv, err := serve.New(serve.Config{
		Runner:        runner,
		QueueCap:      *queueCap,
		CacheDir:      *cacheDir,
		NoJournal:     !*journalFlag,
		MaxQueueDelay: *maxQueueDelay,
		MaxRunTime:    *maxRun,
		Logger:        lg,
		Metrics:       reg,
		Profile:       *profileFlag,
	})
	if err != nil {
		fatal("startup failed", "err", err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 2)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	var adminSrv *http.Server
	if *adminAddr != "" {
		adminSrv = &http.Server{Addr: *adminAddr, Handler: adminMux(reg, srv)}
		go func() { errCh <- adminSrv.ListenAndServe() }()
	}
	lg.Info("listening", "addr", *addr, "admin", orNone(*adminAddr),
		"queue_cap", *queueCap, "par", par.Parallelism(), "cache", orMemory(*cacheDir),
		"journal", *cacheDir != "" && *journalFlag,
		"max_queue_delay", orUnbounded(*maxQueueDelay), "max_run", orUnbounded(*maxRun))

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal("listener failed", "err", err)
	case sig := <-sigCh:
		lg.Info("draining on signal", "signal", sig.String())
	}

	// Drain the job queue first so in-flight /v1/run waiters get their
	// results (readyz reports 503 throughout), then stop the listeners.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		lg.Error("drain failed", "err", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		lg.Error("http shutdown failed", "err", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(ctx); err != nil {
			lg.Error("admin shutdown failed", "err", err)
		}
	}
	lg.Info("drained; bye")
}

// adminMux builds the side-listener handler: pprof, metrics, and the two
// probes. pprof is registered on this private mux only — never on the
// client-facing listener.
func adminMux(reg *telemetry.Registry, srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(serve.BuildVersion())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if srv.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func orMemory(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return fmt.Sprintf("disk at %s", dir)
}

func orNone(addr string) string {
	if addr == "" {
		return "disabled"
	}
	return addr
}

func orUnbounded(d time.Duration) string {
	if d == 0 {
		return "unbounded"
	}
	return d.String()
}
