package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one memnetd child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	admin string // admin listener base URL, "" when off
	log   *os.File
	done  chan struct{}
	err   error // Wait's error, valid once done is closed
}

// freeAddr returns a loopback address that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs memnetd on cacheDir and waits until /v1/readyz
// answers 200. The returned duration is exec → ready, which includes
// journal replay.
func startDaemon(bin, cacheDir string, width int, admin bool, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-cache-dir", cacheDir, "-par", strconv.Itoa(width)}
	d := &daemon{base: "http://" + addr, done: make(chan struct{})}
	if admin {
		a, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-admin", a)
		d.admin = "http://" + a
	}
	if d.log, err = os.Create(logPath); err != nil {
		return nil, 0, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// The daemon must not outlive the benchmark, however that ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, 0, fmt.Errorf("start memnetd: %w", err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			d.log.Close()
			return nil, 0, fmt.Errorf("memnetd exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		if resp, err := probe.Get(d.base + "/v1/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("memnetd not ready after 30 s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 30 s) and waits for
// it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// client is one closed-loop load generator: it sends its next job only
// after the previous one's result has arrived.
type client struct {
	http *http.Client
	base string
	name string
	ref  *reference
}

// jobOutcome is what one served job reports.
type jobOutcome struct {
	cold      bool // planned to run a simulation; the server must agree
	lat       time.Duration
	queueWait time.Duration // cold jobs: submit reply → job_running
	run       time.Duration // cold jobs: job_running → job_done
	err       error
}

// errRefused marks a submission memnetd refused with 503.
var errRefused = errors.New("refused with 503")

// do submits one job, waits for it on the event stream when it is not
// already done, fetches the result and checks its bytes.
func (c *client) do(op serveOp, tr *tracer, id int) jobOutcome {
	o := jobOutcome{cold: op.Cold}
	key := op.Spec.key()
	root, end := tr.begin("op", id, 0)
	defer end()
	t0 := time.Now()
	spec := op.Spec
	spec.Client = c.name
	body, _ := json.Marshal(spec) // plain strings and numbers
	_, endSubmit := tr.begin("http.submit", id, root)
	var sub struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Reused bool   `json:"reused"`
	}
	status, err := c.call("POST", "/v1/jobs", body, &sub)
	endSubmit()
	tSub := time.Now()
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s: submit: %w", key, err)
		return o
	case status == http.StatusServiceUnavailable:
		o.err = fmt.Errorf("%s: %w", key, errRefused)
		return o
	case status != http.StatusOK && status != http.StatusAccepted:
		o.err = fmt.Errorf("%s: submit: HTTP %d", key, status)
		return o
	}
	if sub.Reused == op.Cold {
		o.err = fmt.Errorf("%s: planned cold=%v but the server answered reused=%v", key, op.Cold, sub.Reused)
		return o
	}
	if sub.State != "done" {
		_, endWait := tr.begin("http.events", id, root)
		var tRun, tDone time.Time
		tRun, tDone, err = c.wait(sub.ID)
		endWait()
		if err != nil {
			o.err = fmt.Errorf("%s: %w", key, err)
			return o
		}
		o.queueWait, o.run = tRun.Sub(tSub), tDone.Sub(tRun)
	}
	_, endResult := tr.begin("http.result", id, root)
	var result []byte
	status, err = c.call("GET", "/v1/jobs/"+sub.ID+"/result", nil, &result)
	endResult()
	o.lat = time.Since(t0)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	if err != nil {
		o.err = fmt.Errorf("%s: result: %w", key, err)
		return o
	}
	o.err = c.ref.check(key, digest(result))
	return o
}

// call sends one request and decodes a JSON reply into out (or copies
// the raw body when out is a *[]byte).
func (c *client) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s: %w", path, err)
	}
	return resp.StatusCode, nil
}

// wait reads the job's event stream until its job_done line and returns
// when job_running and job_done arrived.
func (c *client) wait(id string) (tRun, tDone time.Time, err error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return tRun, tDone, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tRun, tDone, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		switch ev.Event {
		case "job_running":
			tRun = time.Now()
		case "job_done":
			tDone = time.Now()
			if tRun.IsZero() {
				tRun = tDone
			}
			io.Copy(io.Discard, resp.Body)
			if ev.State != "done" {
				return tRun, tDone, fmt.Errorf("job %s: %s", ev.State, ev.Error)
			}
			return tRun, tDone, nil
		}
	}
	return tRun, tDone, fmt.Errorf("events: stream ended before job_done (%v)", sc.Err())
}

// serveRun is one timed stretch of the serve-mixed stream.
type serveRun struct {
	outs []jobOutcome
	wall time.Duration
}

// drive runs the stream through nClients closed-loop clients until
// seconds have passed and the warm and cold counts reach their minimums,
// the stream is used up, or the cap is hit.
func drive(base string, ref *reference, stream []serveOp, nClients int, seconds float64, minWarm, minCold int, tr *tracer) *serveRun {
	var next atomic.Int64
	var warm, cold atomic.Int64
	var mu sync.Mutex
	run := &serveRun{}
	t0 := time.Now()
	enough := func() bool {
		el := time.Since(t0)
		return el > hardCap || (el.Seconds() >= seconds && warm.Load() >= int64(minWarm) && cold.Load() >= int64(minCold))
	}
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		c := &client{
			http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
			base: base, name: fmt.Sprintf("client%d", i), ref: ref,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.http.CloseIdleConnections()
			for !enough() {
				k := int(next.Add(1) - 1)
				if k >= len(stream) {
					return
				}
				o := c.do(stream[k], tr, k)
				if o.err == nil {
					if o.cold {
						cold.Add(1)
					} else {
						warm.Add(1)
					}
				}
				mu.Lock()
				run.outs = append(run.outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(t0)
	return run
}

// daemonStats is what memnetd reports about itself after a run.
type daemonStats struct {
	SimsRun, Hits, HitsDisk, Deduped int64
	QueueWaitSum, QueueWaitCount     float64
	RunSum, RunCount                 float64
	DiskWrites                       float64
}

func scrape(base string) (daemonStats, error) {
	var ds daemonStats
	c := &client{http: &http.Client{Timeout: 10 * time.Second}, base: base}
	defer c.http.CloseIdleConnections()
	var st struct {
		SimulationsRun int64 `json:"simulations_run"`
		CacheHits      int64 `json:"cache_hits"`
		CacheHitsDisk  int64 `json:"cache_hits_disk"`
		Deduped        int64 `json:"deduped"`
	}
	if status, err := c.call("GET", "/v1/stats", nil, &st); err != nil || status != http.StatusOK {
		return ds, fmt.Errorf("stats: HTTP %d %v", status, err)
	}
	ds.SimsRun, ds.Hits, ds.HitsDisk, ds.Deduped = st.SimulationsRun, st.CacheHits, st.CacheHitsDisk, st.Deduped
	var text []byte
	if status, err := c.call("GET", "/metrics", nil, &text); err != nil || status != http.StatusOK {
		return ds, fmt.Errorf("metrics: HTTP %d %v", status, err)
	}
	m := parseExposition(text)
	ds.QueueWaitSum, ds.QueueWaitCount = m["memnetd_queue_wait_seconds_sum"], m["memnetd_queue_wait_seconds_count"]
	ds.RunSum, ds.RunCount = m["memnetd_run_seconds_sum"], m["memnetd_run_seconds_count"]
	ds.DiskWrites = m["memnetd_disk_cache_writes_total"]
	return ds, nil
}

// parseExposition reads the unlabelled samples of a Prometheus text
// exposition.
func parseExposition(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// replayRecords reads how many journal records memnetd replayed at start,
// from its "journal recovery complete" log line.
func replayRecords(logPath string) (int64, error) {
	data, err := os.ReadFile(logPath)
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var rec struct {
			Msg     string `json:"msg"`
			Records int64  `json:"records"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Msg == "journal recovery complete" {
			return rec.Records, nil
		}
	}
	return 0, nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
