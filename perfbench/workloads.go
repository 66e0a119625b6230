package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// sweepSetups and serveSetups are how many times set-up is timed; the
// median is reported. A daemon start takes a few milliseconds, so serve
// needs more of them for a steady median.
const (
	sweepSetups = 7
	serveSetups = 21
)

// Sample minimums behind the tail percentiles: p90 of points needs 100,
// p99 of warm jobs 1000, p90 of cold jobs 100.
const (
	minPoints = 100
	minWarm   = 1000
	minCold   = 100
)

// serveClients is the number of closed-loop clients of serve-mixed.
const serveClients = 2

// hardCap ends a measured stretch that has not met its minimums by then,
// so even a pathologically slow run finishes within the 180 s a run may
// take.
const hardCap = 90 * time.Second

func runSweepLight(o options) (*report, error) {
	round := func(ref *reference, r int) []pointOp {
		var ops []pointOp
		for _, p := range sweepRound(o.seed, r) {
			ops = append(ops, designOp(p, ref))
		}
		return ops
	}
	warmup := func(ref *reference) pointOp { return designOp(sweepWarmup, ref) }
	return runSweep(o, round, warmup, "memnet/internal/core.(*System).Execute")
}

func runNocSaturated(o options) (*report, error) {
	round := func(ref *reference, r int) []pointOp {
		var ops []pointOp
		for _, p := range nocRound(o.seed, r) {
			ops = append(ops, synthOp(p, ref))
		}
		return ops
	}
	warmup := func(ref *reference) pointOp { return synthOp(nocWarmup, ref) }
	return runSweep(o, round, warmup, "memnet/internal/noc.RunSynthetic")
}

// runSweep measures a point workload. Set-up loads the reference, builds
// the first round and runs one fixed warm-up point; the untraced run then
// measures whole rounds, and the traced run measures round 0 twice, once
// plain and once with spans and a CPU profile.
func runSweep(o options, round func(*reference, int) []pointOp, warmup func(*reference) pointOp, root string) (*report, error) {
	rep := newReport(o)
	var ref *reference
	setup, err := timeSetups(sweepSetups, func() error {
		var err error
		if ref, err = loadReference(o.ref); err != nil {
			return err
		}
		round(ref, 0)
		if out := warmup(ref)(nil, -1); out.err != nil {
			rep.fail(fmt.Errorf("warm-up: %w", out.err))
		} else {
			rep.ok()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	next := func(r int) []pointOp { return round(ref, r) }
	if !o.trace {
		rss := sampleRSS(os.Getpid())
		ph, err := runPhase(next, o.width, o.seconds, minPoints, nil, false)
		rssMB := rss.median()
		if err != nil {
			return nil, err
		}
		lat, _, exec := ph.latencies(&rep.tally)
		rep.set("setup_s", setup)
		rep.set("ops_per_s", float64(lat.done())/ph.wall.Seconds())
		rep.set("op_p50_ms", lat.percentile(0.5))
		rep.set("sim_p50_ms", exec.percentile(0.5))
		rep.set("sim_p90_ms", describeTail(rep, "sim_p90_ms", exec, 0.9, "points"))
		rep.set("rss_mb", rssMB)
		rep.note("%d rounds, %d points in %.2f s; %.2f CPU s (%.3f points/CPU s); host steal %.2f s",
			len(ph.rounds), ph.points(), ph.wall.Seconds(), ph.cpu.Seconds(), float64(lat.done())/ph.cpu.Seconds(), ph.steal.Seconds())
		noteDMAOrder(rep, ph)
		capFailedLatency(rep, ph.wall)
		return rep, nil
	}

	plain, err := runPhase(next, o.width, 0, 1, nil, false)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPhase(next, o.width, 0, 1, tr, true)
	if err != nil {
		return nil, err
	}
	plain.latencies(&rep.tally)
	lat, build, exec := traced.latencies(&rep.tally)
	c := traced.counters()
	if c != plain.counters() {
		rep.fail(fmt.Errorf("round 0 work counters differ between the plain and the traced run"))
	}
	n := float64(c.points)
	var host time.Duration
	for _, o := range traced.rounds[0] {
		host += o.lat - o.build
	}
	rep.set("sim.sim_us_per_point", float64(c.simPS)/n/1e6)
	rep.set("sim.host_s_per_sim_ms", host.Seconds()/(float64(c.simPS)/1e9))
	rep.set("noc.flits", float64(c.flits))
	rep.set("noc.cycles", float64(c.cycles))
	rep.set("noc.host_ns_per_flit", float64(host.Nanoseconds())/float64(c.flits))
	rep.set("par.busy_frac", traced.busy.Seconds()/(float64(traced.width)*traced.wall.Seconds()))
	rep.set("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	if root == "memnet/internal/noc.RunSynthetic" {
		rep.set("noc.synth_point_ms_p50", lat.percentile(0.5))
	} else {
		rep.set("core.build_ms_p50", build.percentile(0.5))
		rep.set("core.exec_ms_p50", exec.percentile(0.5))
		rep.set("core.alloc_mb_per_point", float64(traced.alloc)/float64(traced.points())/(1<<20))
		rep.set("noc.chan_util", float64(c.busy)/float64(c.chanCycles))
		rep.set("cache.l1_hit", c.l1/n)
		rep.set("cache.l2_hit", c.l2/n)
		rep.set("hmc.row_hit", c.row/n)
		rep.set("ske.ctas_stolen", float64(c.stolen))
		rep.set("core.dma_order_variants", float64(traced.dmaOrderVariants()))
		noteDMAOrder(rep, traced)
	}
	rep.note("round 0: %d points; plain %.2f s, traced %.2f s", c.points, plain.wall.Seconds(), traced.wall.Seconds())
	if err := setCPU(o, rep, traced.cpuProf, root); err != nil {
		return nil, err
	}
	return rep, writeSpans(o, rep, tr)
}

// noteDMAOrder states how many CMN points matched their reference only up
// to the known DMA summation-order defect (see reference.checkResult).
func noteDMAOrder(rep *report, ph *phase) {
	if n := ph.dmaOrderVariants(); n > 0 {
		rep.note("known defect: %d CMN points took another DMA summation order than the reference (H2D/D2H 1 ps apart)", n)
	}
}

// capFailedLatency replaces a latency that a failed op made infinite with
// the measured wall time, the longest any op could have been seen to take.
func capFailedLatency(rep *report, wall time.Duration) {
	for name, v := range rep.values {
		if math.IsInf(v, 1) {
			rep.set(name, wall.Seconds()*1000)
		}
	}
}

// runServeMixed measures memnetd under the closed-loop request stream.
// Before timing, a daemon computes the warm set into a cache directory;
// set-up is then daemon exec → /v1/readyz 200 on a fresh copy of that
// directory, timed serveSetups times.
func runServeMixed(o options) (*report, error) {
	rep := newReport(o)
	ref, err := loadReference(o.ref)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prepared := filepath.Join(dir, "prepared")
	if err := prepare(o, prepared, filepath.Join(dir, "prepare.log")); err != nil {
		return nil, err
	}
	width := max(1, o.width-1) // leave a core for HTTP and the clients
	stream := serveStream(o.seed)

	// start launches a daemon on a fresh copy of the prepared directory.
	runs := 0
	start := func(admin bool) (*daemon, string, time.Duration, error) {
		runs++
		cache := filepath.Join(dir, fmt.Sprintf("run%d", runs))
		if err := copyTree(prepared, cache); err != nil {
			return nil, "", 0, err
		}
		d, t, err := startDaemon(o.memnetd, cache, width, admin, cache+".log")
		return d, cache, t, err
	}

	if !o.trace {
		var setups []float64
		var d *daemon
		for i := 0; i < serveSetups; i++ {
			if d != nil {
				d.stop()
			}
			var t time.Duration
			if d, _, t, err = start(false); err != nil {
				return nil, err
			}
			setups = append(setups, t.Seconds())
		}
		rss := sampleRSS(d.cmd.Process.Pid)
		_, steal0 := hostTimes()
		run := drive(d.base, ref, stream, serveClients, o.seconds, minWarm, minCold, nil)
		_, steal1 := hostTimes()
		rssMB := rss.median()
		ds, err := scrape(d.base)
		d.stop()
		if err != nil {
			return nil, err
		}
		warm, cold := classify(rep, run)
		crossCheck(rep, ds, cold)
		rep.set("setup_s", median(setups))
		rep.set("ops_per_s", float64(warm.done()+cold.done())/run.wall.Seconds())
		rep.set("op_p50_ms", warm.percentile(0.5))
		// Reported, not bounded: see README.md.
		describeTail(rep, "warm tail", warm, 0.99, "warm jobs")
		rep.set("sim_p50_ms", cold.percentile(0.5))
		rep.set("sim_p90_ms", describeTail(rep, "sim_p90_ms", cold, 0.9, "cold jobs"))
		rep.set("rss_mb", rssMB)
		rep.note("%d jobs (%d warm, %d cold) in %.2f s; memnetd mean run %.3f s over %.0f; host steal %.2f s",
			len(run.outs), len(warm), len(cold), run.wall.Seconds(), ds.RunSum/ds.RunCount, ds.RunCount, (steal1 - steal0).Seconds())
		capFailedLatency(rep, run.wall)
		return rep, nil
	}

	half := math.Max(1, math.Ceil(o.seconds/2))
	d, _, _, err := start(false)
	if err != nil {
		return nil, err
	}
	plain := drive(d.base, ref, stream, serveClients, half, 0, 0, nil)
	d.stop()

	d, cache, _, err := start(true)
	if err != nil {
		return nil, err
	}
	profCh := make(chan []byte, 1)
	go func() { profCh <- fetchProfile(d.admin, half) }()
	tr := newTracer()
	traced := drive(d.base, ref, stream, serveClients, half, 0, 0, tr)
	prof := <-profCh
	ds, err := scrape(d.base)
	d.stop()
	if err != nil {
		return nil, err
	}
	classify(rep, plain)
	_, cold := classify(rep, traced)
	crossCheck(rep, ds, cold)
	var waits, runsS samples
	for _, jo := range traced.outs {
		if jo.err == nil && jo.cold {
			waits.add(jo.queueWait)
			runsS.add(jo.run)
		}
	}
	rep.set("serve.queue_wait_ms_p50", waits.percentile(0.5))
	rep.set("serve.run_s_p50", runsS.percentile(0.5)/1000)
	rep.set("serve.sims_run", float64(ds.SimsRun))
	rep.set("serve.hits_memory", float64(ds.Hits-ds.HitsDisk))
	rep.set("serve.hits_disk", float64(ds.HitsDisk))
	rep.set("serve.deduped", float64(ds.Deduped))
	rep.set("cachedir.writes", ds.DiskWrites)
	if ds.RunCount > 0 {
		rep.note("server side: mean queue wait %.1f ms over %.0f, mean run %.3f s over %.0f",
			1000*ds.QueueWaitSum/ds.QueueWaitCount, ds.QueueWaitCount, ds.RunSum/ds.RunCount, ds.RunCount)
	}
	if fi, err := os.Stat(filepath.Join(cache, "journal", "wal.jsonl")); err == nil {
		rep.set("journal.bytes", float64(fi.Size()))
	}
	recs, err := replayRecords(cache + ".log")
	if err != nil {
		return nil, err
	}
	rep.set("journal.replay_records", float64(recs))
	rep.set("trace.overhead_frac", float64(len(plain.outs))/plain.wall.Seconds()/(float64(len(traced.outs))/traced.wall.Seconds())-1)
	rep.note("plain %d jobs in %.2f s, traced %d jobs in %.2f s", len(plain.outs), plain.wall.Seconds(), len(traced.outs), traced.wall.Seconds())
	if prof == nil {
		return nil, fmt.Errorf("no CPU profile from memnetd's admin listener")
	}
	if err := setCPU(o, rep, prof, "memnet/internal/serve.(*Server).execute"); err != nil {
		return nil, err
	}
	return rep, writeSpans(o, rep, tr)
}

// classify tallies a serve run and splits the latencies into warm (cache
// hit) and cold (simulated) jobs; a failed job counts in its planned
// class as missing every limit.
func classify(rep *report, run *serveRun) (warm, cold samples) {
	for _, jo := range run.outs {
		class := &warm
		if jo.cold {
			class = &cold
		}
		if jo.err != nil {
			rep.fail(jo.err)
			class.addFailed()
			continue
		}
		rep.ok()
		class.add(jo.lat)
	}
	return warm, cold
}

// crossCheck compares memnetd's own counters with what the clients saw:
// one simulation per cold job that reached a result, and one run-time
// observation per simulation. A cold job that failed is already counted
// by classify. A disagreement is a failed check.
func crossCheck(rep *report, ds daemonStats, cold samples) {
	if int(ds.SimsRun) != cold.done() || ds.RunCount != float64(ds.SimsRun) {
		rep.fail(fmt.Errorf("memnetd counted %d simulations and %.0f run times for %d completed cold jobs",
			ds.SimsRun, ds.RunCount, cold.done()))
	}
}

// prepare computes the warm set into dir with a daemon of its own, then
// drains it so the results and the journal are on disk.
func prepare(o options, dir, logPath string) error {
	d, _, err := startDaemon(o.memnetd, dir, o.width, false, logPath)
	if err != nil {
		return err
	}
	defer d.stop()
	c := &client{http: &http.Client{Timeout: 60 * time.Second}, base: d.base}
	defer c.http.CloseIdleConnections()
	for _, s := range warmCatalogue() {
		body, _ := json.Marshal(s)
		var out []byte
		status, err := c.call("POST", "/v1/run", body, &out)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d", status)
		}
		if err != nil {
			return fmt.Errorf("prepare %s: %w", s.key(), err)
		}
	}
	return nil
}

// fetchProfile takes a CPU profile of memnetd through its admin listener;
// nil when it fails.
func fetchProfile(admin string, seconds float64) []byte {
	c := &http.Client{Timeout: time.Duration(seconds+30) * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%.0f", admin, seconds))
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return data
}
