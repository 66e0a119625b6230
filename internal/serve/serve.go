// Package serve is memnetd's serving layer: a long-running HTTP/JSON-lines
// front end over the experiment registry (internal/exp). Clients submit
// simulation jobs (experiment name + parameters); the server validates and
// canonicalizes each spec, dedupes identical work through a
// content-addressed result cache, queues admitted jobs in a bounded
// per-client-fair FIFO, executes them one at a time (each job fans its
// runs across the internal/par worker pool, exactly as cmd/experiments
// does), and streams progress events as JSON lines.
//
// Served results are byte-identical to `cmd/experiments -exp <name>`
// output for the same parameters — both render the same registry — and CI
// pins that with a cmp job.
//
// Jobs are server-owned: a client that disconnects mid-run abandons only
// its response stream, not the simulation, and the finished result stays
// cached for the next request. Shutdown drains the in-flight job before
// returning and aborts what is still queued.
//
// # HTTP API
//
//	GET  /v1/healthz            liveness probe (200 even while draining)
//	GET  /v1/readyz             readiness probe (503 once draining starts)
//	GET  /v1/experiments        the experiment registry (JSON)
//	GET  /v1/stats              queue/cache/simulation counters (JSON)
//	GET  /v1/version            server build info (module, Go, VCS ref)
//	GET  /metrics               Prometheus text exposition (with Config.Metrics)
//	POST /v1/jobs               submit a JobSpec; returns id + state
//	GET  /v1/jobs/{id}          job status (JSON; live progress rates while running)
//	DELETE /v1/jobs/{id}        cancel a queued or running job (cooperative)
//	GET  /v1/jobs/{id}/events   progress stream (JSON lines, replay + live)
//	GET  /v1/jobs/{id}/result   the result text (404 until done)
//	GET  /v1/jobs/{id}/profile  per-run latency-attribution profiles (JSON
//	                            array; 404 unless run with Config.Profile)
//	POST /v1/run                submit and wait; returns the result text
//
// # Crash tolerance
//
// With a cache directory configured the server also keeps a durable job
// journal (<cache-dir>/journal/wal.jsonl): an fsync'd JSON-lines WAL of
// every job lifecycle transition. A restarted server replays it before
// accepting traffic — jobs whose results already landed in the disk cache
// are revived as done, and jobs that were queued or running when the
// process died (kill -9 included) are re-queued and run again. Cancelled
// jobs are cooperative: the running sweep polls a stop latch between
// engine events and unwinds within one watchdog interval.
//
// Telemetry is wall-clock and strictly passive: the simulated-time
// observability in internal/obs pins byte-identical results on/off, and
// this layer only ever timestamps serving-side events (queue waits, run
// durations, progress arrival), so served output is byte-identical with
// a metrics registry attached or not.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/obs"
	"memnet/internal/serve/cachedir"
	"memnet/internal/telemetry"
)

// ewmaDecay weights the run-duration moving average used by admission
// control: new observations get 1-ewmaDecay.
const ewmaDecay = 0.7

// Sentinel submission errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 503: retry later).
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("serve: server is shutting down")
	// ErrJobFinished rejects a cancel aimed at a job already done or
	// failed (HTTP 409: there is nothing left to cancel).
	ErrJobFinished = errors.New("serve: job already finished")
)

// OverloadError rejects a submission when admission control estimates the
// queue delay would exceed Config.MaxQueueDelay (HTTP 503 with the
// estimate as Retry-After).
type OverloadError struct {
	// Estimate is the projected wait before this job would start.
	Estimate time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded: estimated queue delay %s exceeds the admission bound", e.Estimate.Round(time.Second))
}

// Runner executes one canonicalized job and returns its rendered result.
// configure, never nil, carries the job's per-run settings (progress sink,
// stop latch, fault schedule, profile file) and must be applied to every
// simulated run. The default runs the experiment registry; tests inject
// stubs.
type Runner func(spec *JobSpec, configure exp.Configure) (string, error)

// RegistryRunner renders spec's experiment exactly as cmd/experiments
// prints it (including the trailing newline fmt.Println appends), so a
// served result byte-compares against the CLI's stdout.
func RegistryRunner(spec *JobSpec, configure exp.Configure) (string, error) {
	e, ok := exp.Find(spec.Experiment)
	if !ok {
		return "", fmt.Errorf("serve: unknown experiment %q", spec.Experiment)
	}
	p := spec.Params()
	p.Configure = configure
	out, err := e.Run(p)
	if err != nil {
		return "", err
	}
	return out + "\n", nil
}

// Config configures a Server.
type Config struct {
	// QueueCap bounds the number of queued (admitted, not yet running)
	// jobs; submissions beyond it are rejected with ErrQueueFull.
	// Default 64.
	QueueCap int
	// CacheDir, when non-empty, persists results on disk so a restarted
	// server still dedupes against everything it ever computed, and (unless
	// NoJournal) enables the durable job journal and restart recovery.
	CacheDir string
	// NoJournal disables the job journal even with CacheDir set: results
	// still persist, but queued/running jobs do not survive a crash.
	NoJournal bool
	// MaxQueueDelay enables admission control: a submission whose
	// estimated wait (recent mean run duration × jobs ahead of it) exceeds
	// this bound is shed with an OverloadError instead of queued. Zero
	// disables shedding; the hard QueueCap still applies.
	MaxQueueDelay time.Duration
	// MaxRunTime is the server-wide ceiling on one job's wall-clock run
	// time; a running job past it is cancelled cooperatively. Zero means
	// no ceiling. A spec's MaxRunSeconds tightens (never loosens) it.
	MaxRunTime time.Duration
	// Runner executes jobs (default RegistryRunner).
	Runner Runner
	// Log selects the destination for lifecycle logs when Logger is nil:
	// its writer receives the structured JSON lines. Kept as a *log.Logger
	// so existing callers (and tests passing io.Discard) keep working.
	Log *log.Logger
	// Logger receives structured lifecycle logs, keyed by job
	// content-address under the "job" attribute. Nil falls back to a JSON
	// logger on Log's writer (or stderr when Log is also nil).
	Logger *slog.Logger
	// Profile, when true, collects a latency-attribution profile (package
	// prof) for every run of every executed job and serves them at
	// GET /v1/jobs/{id}/profile. Profiling is passive — served results
	// stay byte-identical — but the profiles themselves are served from
	// memory only: results revived from the disk cache have none.
	Profile bool
	// Metrics, when non-nil, receives the server's wall-clock telemetry
	// (queue depth, cache hits, latency histograms, per-job progress
	// rates) and is exposed as GET /metrics on the server's handler.
	// Nil disables telemetry at zero cost: the instrumented call sites
	// hold nil metrics, whose methods no-op allocation-free.
	Metrics *telemetry.Registry
}

// Stats are the server's monotonic counters plus current queue state.
type Stats struct {
	SimulationsRun int64 `json:"simulations_run"` // jobs actually executed
	CacheHits      int64 `json:"cache_hits"`      // submissions answered from a completed result
	CacheHitsDisk  int64 `json:"cache_hits_disk"` // subset of CacheHits revived from the disk cache
	Deduped        int64 `json:"deduped"`         // submissions attached to an identical queued/running job
	Rejected       int64 `json:"rejected"`        // submissions refused (queue full)
	Shed           int64 `json:"shed_requests"`   // submissions shed by admission control (estimated delay too high)
	Failed         int64 `json:"jobs_failed"`
	Cancelled      int64 `json:"jobs_cancelled"`    // cancel API or deadline expiry
	Recovered      int64 `json:"recovered_jobs"`    // jobs revived or re-queued by journal replay
	Corruptions    int64 `json:"cache_corruptions"` // disk-cache blobs quarantined after failing verification
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	Draining       bool  `json:"draining"`

	// Progress is the wall-clock progress of the running job (nil when
	// idle): how fast simulated time is advancing in real seconds, and
	// how long since the job last reported anything.
	Progress *JobProgress `json:"progress,omitempty"`

	// Version identifies the server build (also at GET /v1/version).
	Version Version `json:"version"`
}

// JobProgress is the running job's live wall-clock progress view.
type JobProgress struct {
	Job        string `json:"job"`        // content-address key
	Experiment string `json:"experiment"` // registry name
	telemetry.ProgressSnapshot
}

// Server owns the job table, the queue and the single dispatcher
// goroutine. Create with New, serve its Handler, stop with Shutdown.
type Server struct {
	cfg  Config
	lg   *slog.Logger
	met  *serveMetrics
	disk *cachedir.Store
	mux  *http.ServeMux

	mu   sync.Mutex
	cond *sync.Cond
	// jobs is the in-memory job table and result cache, keyed by content
	// address. Completed jobs stay resident: the cache is the point.
	jobs map[string]*job
	// queue holds per-client FIFO lists; clients lists the clients with
	// queued work in round-robin order and nextCli is the RR cursor, so
	// one client flooding the queue cannot starve another's first job.
	queue    map[string][]*job
	clients  []string
	nextCli  int
	queuedN  int
	running  *job
	draining bool
	stats    Stats
	// jl is the durable job journal (nil without a cache dir or with
	// NoJournal); runEWMA is the moving average of run durations in
	// seconds that admission control projects queue delay from.
	jl      *journal
	runEWMA float64

	dispatcherDone chan struct{}
}

// New builds a Server and starts its dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Runner == nil {
		cfg.Runner = RegistryRunner
	}
	if cfg.Logger == nil {
		w := io.Writer(os.Stderr)
		if cfg.Log != nil {
			w = cfg.Log.Writer()
		}
		cfg.Logger = telemetry.NewLogger(w)
	}
	s := &Server{
		cfg:            cfg,
		lg:             cfg.Logger,
		jobs:           make(map[string]*job),
		queue:          make(map[string][]*job),
		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.met = newServeMetrics(cfg.Metrics, s)
	if cfg.CacheDir != "" {
		disk, err := cachedir.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		disk.Instrument(s.met.diskCounters())
		s.disk = disk
	}
	if s.disk != nil && !cfg.NoJournal {
		jl, err := openJournal(filepath.Join(cfg.CacheDir, "journal"))
		if err != nil {
			return nil, err
		}
		s.jl = jl
		// Recover before the dispatcher starts: replayed jobs must be in
		// the queue before anything else can be picked.
		s.recover()
	}
	s.buildMux()
	go s.dispatch()
	return s, nil
}

// recover replays the journal left by a previous process and rebuilds the
// queue: jobs whose result is already in the disk cache are revived as
// done, everything else — queued or interrupted mid-run — is re-queued in
// original submission order. The WAL is then compacted down to the live
// set. Damage never aborts startup: replay trusts the valid prefix and
// recovery proceeds with whatever it names.
func (s *Server) recover() {
	rr, err := replayJournal(s.jl.path())
	if err != nil {
		// An unreadable WAL loses recovery, not service.
		s.lg.Error("journal replay failed; starting with an empty queue", "err", err)
		return
	}
	if rr.Truncated {
		s.lg.Warn("journal tail damaged; recovering the valid prefix", "records", rr.Records)
	}
	if rr.Skipped > 0 {
		s.lg.Warn("journal records skipped during replay", "skipped", rr.Skipped)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	revived, requeued := 0, 0
	for _, rj := range rr.Live {
		spec := rj.spec
		if err := spec.Canonicalize(); err != nil {
			s.lg.Error("recovered spec no longer valid; dropping", "job", rj.key, "err", err)
			continue
		}
		key := spec.Key()
		if key != rj.key {
			// The journalled key does not match the spec it carries —
			// tampering or version skew. The spec is authoritative.
			s.lg.Warn("recovered job key mismatch; trusting the spec", "journal_key", rj.key, "spec_key", key)
		}
		if _, dup := s.jobs[key]; dup {
			continue
		}
		j := newJob(spec, key)
		j.recovered = true
		if data, ok, err := s.disk.Get(key); err != nil {
			s.lg.Error("disk cache read failed during recovery", "job", key, "err", err)
		} else if ok {
			// The result outlived the crash; the job is done, just unannounced.
			j.state = StateDone
			j.result = string(data)
			close(j.done)
			s.jobs[key] = j
			revived++
			continue
		}
		s.jobs[key] = j
		client := spec.Client
		if client == "" {
			client = "anonymous"
		}
		if len(s.queue[client]) == 0 {
			s.clients = append(s.clients, client)
		}
		s.queue[client] = append(s.queue[client], j)
		s.queuedN++
		j.publishLocked(fmt.Sprintf(`{"event":"job_recovered","id":%q,"interrupted":%v}`, key, rj.started))
		requeued++
	}
	s.stats.Recovered += int64(revived + requeued)
	s.met.recoveredJobs.Add(int64(revived + requeued))
	s.met.queueDepth.Set(int64(s.queuedN))
	s.met.setClientQueuesLocked(s.queue)
	if revived+requeued > 0 || rr.Records > 0 {
		s.lg.Info("journal recovery complete", "revived", revived, "requeued", requeued,
			"records", rr.Records, "truncated", rr.Truncated)
	}
	s.compactLocked()
}

// journalLocked appends one record to the WAL (no-op without a journal)
// and compacts once the log has grown past the rewrite threshold. Append
// failures degrade durability, not service: they are logged and counted,
// and the server keeps running.
func (s *Server) journalLocked(rec journalRecord) {
	if s.jl == nil {
		return
	}
	if err := s.jl.append(rec); err != nil {
		s.met.journalErrors.Inc()
		s.lg.Error("journal append failed", "job", rec.Job, "type", rec.Type, "err", err)
		return
	}
	if s.jl.appends >= compactEvery {
		s.compactLocked()
	}
}

// compactLocked rewrites the WAL down to the live jobs: a submitted
// record per queued job (in round-robin pick order) and submitted+started
// for the in-flight one.
func (s *Server) compactLocked() {
	if s.jl == nil {
		return
	}
	var recs []journalRecord
	if j := s.running; j != nil {
		recs = append(recs,
			journalRecord{Type: recSubmitted, Job: j.key, Spec: j.spec},
			journalRecord{Type: recStarted, Job: j.key})
	}
	for _, c := range s.clients {
		for _, j := range s.queue[c] {
			recs = append(recs, journalRecord{Type: recSubmitted, Job: j.key, Spec: j.spec})
		}
	}
	if err := s.jl.rewrite(recs); err != nil {
		s.met.journalErrors.Inc()
		s.lg.Error("journal compaction failed", "err", err)
	}
}

// Draining reports whether the server has begun shutting down (the
// readiness signal behind /v1/readyz).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// progressSnapshot returns the running job's wall-clock progress (zero
// when idle). Scrape-time callbacks read it outside the registry lock.
func (s *Server) progressSnapshot() telemetry.ProgressSnapshot {
	s.mu.Lock()
	j := s.running
	s.mu.Unlock()
	if j == nil {
		return telemetry.ProgressSnapshot{}
	}
	return j.prog.Snapshot()
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.Version = BuildVersion()
	st.Queued = s.queuedN
	st.Draining = s.draining
	if s.disk != nil {
		st.Corruptions = s.disk.Corruptions()
	}
	j := s.running
	if j != nil {
		st.Running = 1
	}
	s.mu.Unlock()
	if j != nil {
		// Snapshot outside the server lock: the tracker has its own.
		st.Progress = &JobProgress{
			Job:              j.key,
			Experiment:       j.spec.Experiment,
			ProgressSnapshot: j.prog.Snapshot(),
		}
	}
	return st
}

// Submit validates, canonicalizes and admits a job spec. It returns the
// job's content-address key, its state after admission, and whether this
// submission was answered without new work (cache hit or dedupe). The
// caller observes completion via Wait or the HTTP event stream.
func (s *Server) Submit(spec *JobSpec) (key, state string, reused bool, err error) {
	if err := spec.Canonicalize(); err != nil {
		return "", "", false, err
	}
	j, reused, err := s.admit(spec)
	if err != nil {
		return "", "", false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.key, j.state, reused, nil
}

// admit takes a canonicalized spec and returns its job: an existing one
// (cache hit / dedupe), one revived from the disk cache, or a freshly
// queued one.
func (s *Server) admit(spec *JobSpec) (*job, bool, error) {
	key := spec.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Aborted and cancelled jobs do not block resubmission: the work was
	// never finished, so an identical spec starts fresh.
	if j, ok := s.jobs[key]; ok && j.state != StateAborted && j.state != StateCancelled {
		switch j.state {
		case StateDone, StateFailed:
			// Failed results are cached too: the simulator is
			// deterministic, so the same spec fails the same way.
			s.stats.CacheHits++
			s.met.cacheHitMem.Inc()
		default:
			s.stats.Deduped++
			s.met.deduped.Inc()
		}
		return j, true, nil
	}
	if s.disk != nil {
		if data, ok, err := s.disk.Get(key); err != nil {
			s.lg.Error("disk cache read failed", "job", key, "err", err)
		} else if ok {
			j := newJob(spec, key)
			j.state = StateDone
			j.result = string(data)
			close(j.done)
			s.jobs[key] = j
			s.stats.CacheHits++
			s.stats.CacheHitsDisk++
			s.met.cacheHitDisk.Inc()
			return j, true, nil
		}
	}
	if s.draining {
		s.met.rejectedDrain.Inc()
		return nil, false, ErrDraining
	}
	if s.queuedN >= s.cfg.QueueCap {
		s.stats.Rejected++
		s.met.rejectedFull.Inc()
		return nil, false, ErrQueueFull
	}
	if s.cfg.MaxQueueDelay > 0 && s.runEWMA > 0 {
		// Shed early when the projected wait — recent mean run duration ×
		// jobs ahead (queued plus in-flight) — exceeds the bound. Better a
		// fast 503 with an honest Retry-After than a queue slot the client
		// will give up on anyway.
		ahead := s.queuedN
		if s.running != nil {
			ahead++
		}
		est := time.Duration(s.runEWMA * float64(ahead) * float64(time.Second))
		if est > s.cfg.MaxQueueDelay {
			s.stats.Shed++
			s.met.shedRequests.Inc()
			s.lg.Info("submission shed", "experiment", spec.Experiment, "estimated_delay", est.Round(time.Second).String())
			return nil, false, &OverloadError{Estimate: est}
		}
	}
	j := newJob(spec, key)
	s.jobs[key] = j
	client := spec.Client
	if client == "" {
		client = "anonymous"
	}
	if len(s.queue[client]) == 0 {
		s.clients = append(s.clients, client)
	}
	s.queue[client] = append(s.queue[client], j)
	s.queuedN++
	s.met.cacheMiss.Inc()
	s.met.queuedTotal.Inc()
	s.met.queueDepth.Set(int64(s.queuedN))
	s.met.setClientQueuesLocked(s.queue)
	s.journalLocked(journalRecord{Type: recSubmitted, Job: key, Spec: spec})
	s.lg.Info("job queued", "job", key, "experiment", spec.Experiment, "client", client, "queued", s.queuedN)
	s.cond.Signal()
	return j, false, nil
}

// Wait blocks until the job reaches a terminal state or ctx is cancelled.
// Cancellation abandons only the wait — the job keeps running and its
// result stays cached (client churn must not waste computed work).
func (s *Server) Wait(ctx context.Context, key string) (result string, err error) {
	s.mu.Lock()
	j, ok := s.jobs[key]
	s.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("serve: unknown job %q", key)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return "", fmt.Errorf("serve: job failed: %s", j.errMsg)
	case StateCancelled:
		return "", fmt.Errorf("serve: job cancelled: %s", j.errMsg)
	default: // aborted
		return "", fmt.Errorf("serve: job aborted at shutdown")
	}
}

// Cancel tears a job down. A queued job is removed from the queue and
// terminal immediately; a running job gets its stop latch tripped and the
// sweep unwinds cooperatively at the next engine-event boundary (the
// returned state is "running" — watch the event stream or poll status for
// the terminal "cancelled"). Cancelling an already-cancelled or aborted
// job is idempotent; a done or failed job returns ErrJobFinished.
func (s *Server) Cancel(key, reason string) (state string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return "", fmt.Errorf("serve: unknown job %q", key)
	}
	switch j.state {
	case StateQueued:
		if !s.removeQueuedLocked(j) {
			// In the table as queued but not in the queue: accounting bug.
			return "", fmt.Errorf("serve: job %q queued but not found in queue", key)
		}
		j.state = StateCancelled
		j.errMsg = reason
		s.stats.Cancelled++
		s.met.jobsCancelled.Inc()
		s.met.queueDepth.Set(int64(s.queuedN))
		s.met.setClientQueuesLocked(s.queue)
		s.journalLocked(journalRecord{Type: recCancelled, Job: key, Reason: reason})
		j.publishLocked(terminalLine(j))
		close(j.done)
		s.lg.Info("job cancelled", "job", key, "experiment", j.spec.Experiment, "reason", reason, "was", StateQueued)
		return j.state, nil
	case StateRunning:
		// Cooperative: execute observes the latch when the sweep unwinds
		// and writes the terminal state, journal record and counters there.
		j.stop.Trip(reason)
		s.lg.Info("job cancelling", "job", key, "experiment", j.spec.Experiment, "reason", reason)
		return j.state, nil
	case StateCancelled, StateAborted:
		return j.state, nil
	default: // done, failed
		return j.state, ErrJobFinished
	}
}

// removeQueuedLocked unlinks a queued job from its client's FIFO,
// maintaining the round-robin cursor. Reports whether the job was found.
func (s *Server) removeQueuedLocked(target *job) bool {
	client := target.spec.Client
	if client == "" {
		client = "anonymous"
	}
	q := s.queue[client]
	for i, j := range q {
		if j != target {
			continue
		}
		q = append(q[:i], q[i+1:]...)
		if len(q) == 0 {
			delete(s.queue, client)
			for ci, c := range s.clients {
				if c == client {
					s.clients = append(s.clients[:ci], s.clients[ci+1:]...)
					if ci < s.nextCli {
						s.nextCli--
					}
					break
				}
			}
		} else {
			s.queue[client] = q
		}
		s.queuedN--
		return true
	}
	return false
}

// dispatch is the single executor loop: it picks one queued job at a time
// (round-robin over clients, FIFO within a client) and runs it. One job
// at a time is deliberate: each job already fans its runs across the
// whole internal/par pool.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	for {
		s.mu.Lock()
		for s.queuedN == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.abortQueuedLocked()
			s.mu.Unlock()
			return
		}
		j := s.pickLocked()
		j.state = StateRunning
		s.running = j
		s.met.queueDepth.Set(int64(s.queuedN))
		s.met.setClientQueuesLocked(s.queue)
		s.met.queueWait.Observe(time.Since(j.queuedAt).Seconds())
		s.met.runningJobs.Set(1)
		s.journalLocked(journalRecord{Type: recStarted, Job: j.key})
		j.publishLocked(fmt.Sprintf(`{"event":"job_running","id":%q}`, j.key))
		s.mu.Unlock()

		s.execute(j)

		s.mu.Lock()
		s.running = nil
		s.met.runningJobs.Set(0)
		s.mu.Unlock()
	}
}

// pickLocked pops the next job: the round-robin cursor selects the client,
// the client's list is FIFO.
func (s *Server) pickLocked() *job {
	if s.nextCli >= len(s.clients) {
		s.nextCli = 0
	}
	c := s.clients[s.nextCli]
	q := s.queue[c]
	j := q[0]
	if len(q) == 1 {
		delete(s.queue, c)
		// Removing the client leaves nextCli pointing at the next one.
		s.clients = append(s.clients[:s.nextCli], s.clients[s.nextCli+1:]...)
	} else {
		s.queue[c] = q[1:]
		s.nextCli++
	}
	s.queuedN--
	return j
}

// deadlineFor returns the job's effective run-time ceiling: the tighter
// of the spec's MaxRunSeconds and the server-wide MaxRunTime (zero: none).
func (s *Server) deadlineFor(spec *JobSpec) time.Duration {
	d := s.cfg.MaxRunTime
	if spec.MaxRunSeconds > 0 {
		jd := time.Duration(spec.MaxRunSeconds * float64(time.Second))
		if d == 0 || jd < d {
			d = jd
		}
	}
	return d
}

// execute runs one job through the Runner, handing it a hook that attaches
// the job's progress sink, stop latch, fault schedule and (with
// Config.Profile) per-run profile file to every run, then publishes the
// terminal state.
func (s *Server) execute(j *job) {
	var deadlineTimer *time.Timer
	if d := s.deadlineFor(j.spec); d > 0 {
		deadlineTimer = time.AfterFunc(d, func() {
			j.stop.Trip(fmt.Sprintf("deadline exceeded after %s", d))
		})
	}
	var profDir string
	if s.cfg.Profile {
		dir, err := os.MkdirTemp("", "memnetd-prof-")
		if err != nil {
			// Degrade to an unprofiled run; the result is identical anyway.
			s.lg.Error("profile dir creation failed", "job", j.key, "err", err)
		} else {
			profDir = dir
		}
	}
	progress := func(ev obs.ProgressEvent) { s.publishProgress(j, ev) }
	configure := func(cfg *core.Config, run string) {
		cfg.Progress = progress
		cfg.Stop = j.stop
		cfg.Faults = j.spec.Faults
		if profDir != "" {
			cfg.ProfileOut = filepath.Join(profDir, run+".profile.json")
		}
	}
	start := time.Now()
	out, err := s.cfg.Runner(j.spec, configure)
	elapsed := time.Since(start)
	if deadlineTimer != nil {
		deadlineTimer.Stop()
	}
	var profiles []json.RawMessage
	if profDir != "" {
		profiles = s.collectProfiles(j, profDir)
		os.RemoveAll(profDir)
	}
	s.met.runSeconds.Observe(elapsed.Seconds())

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.SimulationsRun++
	if s.runEWMA == 0 {
		s.runEWMA = elapsed.Seconds()
	} else {
		s.runEWMA = ewmaDecay*s.runEWMA + (1-ewmaDecay)*elapsed.Seconds()
	}
	if err != nil && j.stop.Tripped() {
		// The sweep unwound because the latch tripped (cancel API or
		// deadline), not because the simulation failed.
		j.state = StateCancelled
		j.errMsg = j.stop.Reason()
		s.stats.Cancelled++
		s.met.jobsCancelled.Inc()
		s.journalLocked(journalRecord{Type: recCancelled, Job: j.key, Reason: j.errMsg})
		s.lg.Info("job cancelled", "job", j.key, "experiment", j.spec.Experiment,
			"wall_seconds", elapsed.Seconds(), "reason", j.errMsg, "was", StateRunning)
	} else if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		s.stats.Failed++
		s.met.jobsFailed.Inc()
		s.journalLocked(journalRecord{Type: recFailed, Job: j.key})
		s.lg.Error("job failed", "job", j.key, "experiment", j.spec.Experiment,
			"wall_seconds", elapsed.Seconds(), "err", err)
	} else {
		j.state = StateDone
		j.result = out
		j.profiles = profiles
		s.met.jobsDone.Inc()
		s.lg.Info("job done", "job", j.key, "experiment", j.spec.Experiment,
			"wall_seconds", elapsed.Seconds(), "bytes", len(out))
		if s.disk != nil {
			if derr := s.disk.Put(j.key, []byte(out)); derr != nil {
				// The in-memory result is still served; only persistence
				// across restarts is degraded.
				s.lg.Error("disk cache write failed", "job", j.key, "err", derr)
			}
		}
		// Journal done only after the result is durably cached: a crash
		// between the two re-runs the job instead of losing the result.
		s.journalLocked(journalRecord{Type: recDone, Job: j.key})
	}
	j.publishLocked(terminalLine(j))
	close(j.done)
}

// collectProfiles reads the per-run profile files a job's sweep wrote
// into its temporary directory. Files are named after their zero-padded
// run ids, so glob order is job order.
func (s *Server) collectProfiles(j *job, dir string) []json.RawMessage {
	files, err := filepath.Glob(filepath.Join(dir, "*.profile.json"))
	if err != nil {
		s.lg.Error("profile glob failed", "job", j.key, "err", err)
		return nil
	}
	var out []json.RawMessage
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			s.lg.Error("profile read failed", "job", j.key, "file", file, "err", err)
			continue
		}
		if !json.Valid(data) {
			s.lg.Error("profile is not valid JSON", "job", j.key, "file", file)
			continue
		}
		out = append(out, json.RawMessage(data))
	}
	return out
}

// publishProgress marshals one progress event onto the job's stream and
// wall-stamps it into the job's rate tracker. It is called concurrently
// from the worker goroutines of the running sweep; the bridge is passive
// — it observes the event after the simulation emitted it, so telemetry
// can never perturb a run.
func (s *Server) publishProgress(j *job, ev obs.ProgressEvent) {
	j.prog.Observe(int64(ev.At))
	line := fmt.Sprintf(`{"event":%q,"run":%q,"phase":%q,"at_ps":%d}`,
		ev.Event, ev.Run, ev.Phase, int64(ev.At))
	s.mu.Lock()
	j.publishLocked(line)
	s.mu.Unlock()
}

// terminalLine renders the final JSON line of a job's event stream.
func terminalLine(j *job) string {
	if j.state == StateFailed || j.state == StateCancelled {
		return fmt.Sprintf(`{"event":"job_done","id":%q,"state":%q,"error":%q}`, j.key, j.state, j.errMsg)
	}
	return fmt.Sprintf(`{"event":"job_done","id":%q,"state":%q}`, j.key, j.state)
}

// abortQueuedLocked fails every still-queued job with the aborted state
// (their waiters unblock with a shutdown error). Deliberately not
// journalled as terminal: an abort only means this process is going away,
// so the jobs' submitted records stay in the WAL and the next start
// re-queues them — a graceful drain loses no accepted work.
func (s *Server) abortQueuedLocked() {
	for _, c := range s.clients {
		for _, j := range s.queue[c] {
			j.state = StateAborted
			j.publishLocked(terminalLine(j))
			close(j.done)
			s.queuedN--
			s.met.jobsAborted.Inc()
			s.lg.Info("job aborted at shutdown", "job", j.key, "experiment", j.spec.Experiment)
		}
		delete(s.queue, c)
	}
	s.clients = nil
	if s.queuedN != 0 {
		// Defensive: the counters above are the only mutators.
		s.lg.Error("queue accounting off at shutdown", "delta", s.queuedN)
		s.queuedN = 0
	}
	s.met.queueDepth.Set(0)
	s.met.setClientQueuesLocked(s.queue)
}

// Shutdown drains the server: no new submissions are admitted, the
// in-flight job (if any) runs to completion and is cached, and queued
// jobs are aborted. It returns once the dispatcher has exited or ctx
// expires (the dispatcher then still exits on its own; only the wait is
// abandoned).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.met.draining.Set(1)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.lg.Info("draining", "queued", s.Stats().Queued)
	select {
	case <-s.dispatcherDone:
		s.mu.Lock()
		if s.jl != nil {
			s.jl.close()
			s.jl = nil
		}
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
