package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memnet/internal/core"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {0, 0.5, false},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.q); got != c.ok {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
	var s samples
	for i := 1; i <= 50; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	v, used := s.tail(0.9)
	if used >= 0.9 || beyond(len(s), used) < minBeyond {
		t.Errorf("50 samples: tail used p%.0f with %d beyond", 100*used, beyond(len(s), used))
	}
	if want := s.percentile(used); v != want {
		t.Errorf("tail value %g, want %g", v, want)
	}
	rep := &report{values: map[string]float64{}}
	describeTail(rep, "sim_p90_ms", s, 0.9, "points")
	if len(rep.notes) != 1 || !strings.Contains(rep.notes[0], "of 50 points (10 beyond)") {
		t.Errorf("tail note %q does not state the percentile's sample count", rep.notes)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i) * time.Millisecond)
	}
	if p := s.percentile(0.5); p != 50 {
		t.Errorf("p50 = %g, want 50", p)
	}
	if p := s.percentile(0.9); p != 90 {
		t.Errorf("p90 = %g, want 90", p)
	}
	s.addFailed()
	if p := s.percentile(1); !math.IsInf(p, 1) {
		t.Errorf("a failed op should sit above every latency, got max %g", p)
	}
	if s.done() != 100 {
		t.Errorf("done = %d, want 100", s.done())
	}
}

// fakeDaemon answers the job API with the given submit status and result
// body for every job.
func fakeDaemon(t *testing.T, submitStatus int, result string) *client {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(submitStatus)
		if submitStatus == http.StatusOK {
			fmt.Fprint(w, `{"id":"abc","state":"done","reused":true}`)
		}
	})
	mux.HandleFunc("GET /v1/jobs/abc/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, result)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	spec := jobSpec{Experiment: "fig12"}
	ref := &reference{Format: refFormat, Entries: map[string]string{spec.key(): digest([]byte("right\n"))}}
	return &client{http: srv.Client(), base: srv.URL, name: "t", ref: ref}
}

func TestRefusedAndMismatchedJobsCountAsFailed(t *testing.T) {
	op := serveOp{Spec: jobSpec{Experiment: "fig12"}}
	cases := []struct {
		name    string
		status  int
		body    string
		wantErr string
	}{
		{"served", http.StatusOK, "right\n", ""},
		{"refused", http.StatusServiceUnavailable, "", "refused with 503"},
		{"mismatch", http.StatusOK, "wrong\n", "output mismatch"},
	}
	run := &serveRun{}
	for _, c := range cases {
		o := fakeDaemon(t, c.status, c.body).do(op, nil, 0)
		switch {
		case c.wantErr == "" && o.err != nil:
			t.Errorf("%s: unexpected error %v", c.name, o.err)
		case c.wantErr != "" && (o.err == nil || !strings.Contains(o.err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want %q", c.name, o.err, c.wantErr)
		}
		if c.name == "refused" && !errors.Is(o.err, errRefused) {
			t.Errorf("refused job error %v does not wrap errRefused", o.err)
		}
		run.outs = append(run.outs, o)
	}
	rep := &report{values: map[string]float64{}}
	warm, _ := classify(rep, run)
	if rep.attempted != 3 || rep.failed != 2 || math.Abs(rep.failedFrac()-2.0/3) > 1e-12 {
		t.Errorf("attempted %d failed %d frac %g, want 3, 2, 2/3", rep.attempted, rep.failed, rep.failedFrac())
	}
	if warm.done() != 1 || !math.IsInf(warm.percentile(0.9), 1) {
		t.Errorf("failed jobs must count as missing every latency limit: %v", warm)
	}
}

// A deliberately wrong reference entry is reported as a failed op, for
// both simulated outputs.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key string
		op  func(*reference) pointOp
	}{
		{sweepWarmup.key(), func(r *reference) pointOp { return designOp(sweepWarmup, r) }},
		{nocWarmup.key(), func(r *reference) pointOp { return synthOp(nocWarmup, r) }},
	} {
		if o := c.op(ref)(nil, 0); o.err != nil {
			t.Fatalf("%s against the committed reference: %v", c.key, o.err)
		}
		bad := &reference{Format: refFormat, Entries: map[string]string{}}
		for k, v := range ref.Entries {
			bad.Entries[k] = v
		}
		bad.Entries[c.key] = strings.Repeat("0", 64)
		o := c.op(bad)(nil, 0)
		if o.err == nil || !strings.Contains(o.err.Error(), c.key) {
			t.Errorf("corrupted entry %s not reported by name: %v", c.key, o.err)
		}
		delete(bad.Entries, c.key)
		if o := c.op(bad)(nil, 0); o.err == nil {
			t.Errorf("missing entry %s not reported", c.key)
		}
	}
}

// A cold job that failed before simulating is counted once, by classify;
// the cross-check against memnetd's counters does not count it again.
func TestFailedColdJobCountedOnce(t *testing.T) {
	run := &serveRun{outs: []jobOutcome{
		{cold: true, lat: time.Second},
		{cold: true, err: fmt.Errorf("cold job: %w", errRefused)},
	}}
	rep := &report{values: map[string]float64{}}
	_, cold := classify(rep, run)
	crossCheck(rep, daemonStats{SimsRun: 1, RunCount: 1}, cold)
	if rep.attempted != 2 || rep.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", rep.attempted, rep.failed)
	}
	crossCheck(rep, daemonStats{SimsRun: 2, RunCount: 2}, cold)
	if rep.failed != 2 {
		t.Errorf("a simulation no client saw complete was not reported: failed %d", rep.failed)
	}
}

// A CMN result may differ from its reference only as the known DMA
// summation-order defect allows: H2D and D2H within 1 ps, the kernel
// phase taking up H2D's difference and the mean GPU memory latency moving
// with the kernel phase or not at all. Anything else is a mismatch.
func TestCMNOrderVariants(t *testing.T) {
	p := designPoint{"CP", core.CMN, 0.04, 1}
	res, err := core.Run(p.config())
	if err != nil {
		t.Fatal(err)
	}
	sum, times := resultEntry(res)
	if times == nil {
		t.Fatal("a CMN result has no CMN times")
	}
	ref := &reference{Format: refFormat, Entries: map[string]string{p.key(): sum}, CMN: map[string]cmnTimes{p.key(): *times}}
	cases := []struct {
		name    string
		edit    func(r *core.Result)
		variant bool
		ok      bool
	}{
		{"same", func(r *core.Result) {}, false, true},
		{"h2d+1", func(r *core.Result) { r.H2D++; r.Kernel-- }, true, true},
		{"h2d+1 latency-1", func(r *core.Result) { r.H2D++; r.Kernel--; r.GPUMemLatency-- }, true, true},
		{"h2d+1 latency+1", func(r *core.Result) { r.H2D++; r.Kernel--; r.GPUMemLatency++ }, false, false},
		{"latency alone", func(r *core.Result) { r.GPUMemLatency++ }, false, false},
		{"d2h-1", func(r *core.Result) { r.D2H--; r.Total-- }, true, true},
		{"h2d+2", func(r *core.Result) { r.H2D += 2; r.Kernel -= 2 }, false, false},
		{"h2d alone", func(r *core.Result) { r.H2D++; r.Total++ }, false, false},
		{"total", func(r *core.Result) { r.Total++ }, false, false},
		{"l1 hit rate", func(r *core.Result) { r.L1HitRate += 1e-9 }, false, false},
	}
	for _, c := range cases {
		r := *res
		c.edit(&r)
		off, err := ref.checkResult(p.key(), &r)
		if (err == nil) != c.ok || (off != cmnTimes{}) != c.variant {
			t.Errorf("%s: offset %+v, error %v; want ok %v, variant %v", c.name, off, err, c.ok, c.variant)
		}
	}
	delete(ref.CMN, p.key())
	if _, err := ref.checkResult(p.key(), res); err == nil {
		t.Error("a CMN point without reference CMN times passed")
	}
}
