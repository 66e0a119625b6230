package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/noc"
	"memnet/internal/par"
)

// refFormat tags the reference file layout.
const refFormat = "memnet-perfbench-ref/v2"

// reference maps every catalogue key to the SHA-256 of the op's
// deterministic output: the full core.Result, the noc.LoadPoint, or the
// served result bytes. A CMN design point's digest leaves out its
// memcpy-dependent times, which CMN holds instead (see checkResult).
type reference struct {
	Format  string              `json:"format"`
	Entries map[string]string   `json:"entries"`
	CMN     map[string]cmnTimes `json:"cmn_times"`
}

// cmnTimes are a design point's memcpy-dependent Result fields, in ps.
type cmnTimes struct {
	H2D       int64 `json:"h2d"`
	Kernel    int64 `json:"kernel"`
	D2H       int64 `json:"d2h"`
	GPUMemLat int64 `json:"gpu_mem_latency"`
}

func (t cmnTimes) sub(u cmnTimes) cmnTimes {
	return cmnTimes{t.H2D - u.H2D, t.Kernel - u.Kernel, t.D2H - u.D2H, t.GPUMemLat - u.GPUMemLat}
}

// end is the simulated time at which the phases end.
func (t cmnTimes) end() int64 { return t.H2D + t.Kernel + t.D2H }

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	if ref.Format != refFormat {
		return nil, fmt.Errorf("reference %s: format %q, want %q", path, ref.Format, refFormat)
	}
	return &ref, nil
}

// check compares an op's output digest with the reference; a missing
// entry or a different digest is a failed op, named by key.
func (r *reference) check(key, got string) error {
	want, ok := r.Entries[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", key)
	}
	if got != want {
		return fmt.Errorf("%s: output mismatch: digest %.12s, reference %.12s", key, got, want)
	}
	return nil
}

// checkResult compares a design point's Result with the reference and
// returns how far its phase times lie from the reference's.
//
// Every field must match exactly, with one exception, a known defect of
// the program: under CMN, System.memcpy (internal/core/run.go) adds up
// the per-cluster DMA times in a float64 over a Go map, so the order of
// the sum, and hence the last picosecond of the truncated H2D and D2H
// phases, follows the map's random iteration order. A CMN result is
// therefore accepted when its H2D and D2H phases lie within 1 ps of the
// reference's, the kernel phase absorbs H2D's difference exactly (it ends
// on the same clock edge), the mean GPU memory latency moves by that
// difference or not at all (requests issued as the kernel starts see it),
// Total is the sum of the phases and every other field matches. The
// caller reports each such order variant.
func (r *reference) checkResult(key string, res *core.Result) (cmnTimes, error) {
	sum, got := resultEntry(res)
	if err := r.check(key, sum); err != nil || got == nil {
		return cmnTimes{}, err
	}
	want, ok := r.CMN[key]
	if !ok {
		return cmnTimes{}, fmt.Errorf("%s: no reference CMN times", key)
	}
	off := got.sub(want)
	if abs(off.H2D) > 1 || abs(off.D2H) > 1 || off.H2D+off.Kernel != 0 ||
		(off.GPUMemLat != 0 && off.GPUMemLat != off.Kernel) ||
		res.Total != res.H2D+res.Kernel+res.Host+res.D2H {
		return cmnTimes{}, fmt.Errorf("%s: output mismatch: h2d/kernel/d2h/gpu-mem-latency %d/%d/%d/%d ps, reference %d/%d/%d/%d ps, total %d ps",
			key, got.H2D, got.Kernel, got.D2H, got.GPUMemLat, want.H2D, want.Kernel, want.D2H, want.GPUMemLat, res.Total)
	}
	return off, nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultEntry returns a Result's reference entry: the digest of every
// field, and for CMN, whose memcpy-dependent times the digest leaves out,
// those times.
func resultEntry(res *core.Result) (string, *cmnTimes) {
	if res.Arch != core.CMN.String() {
		return resultDigest(res), nil
	}
	c := *res
	t := &cmnTimes{int64(c.H2D), int64(c.Kernel), int64(c.D2H), int64(c.GPUMemLatency)}
	c.H2D, c.Kernel, c.D2H, c.Total, c.GPUMemLatency = 0, 0, 0, 0, 0
	return resultDigest(&c), t
}

// resultDigest hashes every field of a core.Result, the traffic matrix
// cell by cell (its fields are unexported, so JSON alone would drop it).
func resultDigest(res *core.Result) string {
	c := *res
	c.Traffic = nil
	b, err := json.Marshal(&c)
	if err != nil {
		// A Result holds only numbers, strings and slices of numbers.
		panic(fmt.Sprintf("marshal result: %v", err))
	}
	if m := res.Traffic; m != nil {
		b = fmt.Appendf(b, "traffic %dx%d", m.Rows(), m.Cols())
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				b = fmt.Appendf(b, " %d", m.At(i, j))
			}
		}
	}
	return digest(b)
}

func loadPointDigest(lp noc.LoadPoint) string {
	b, err := json.Marshal(lp)
	if err != nil {
		panic(fmt.Sprintf("marshal load point: %v", err))
	}
	return digest(b)
}

// registryOutput renders a job exactly as cmd/experiments prints it, which
// is also what memnetd serves for it.
func registryOutput(s jobSpec) ([]byte, error) {
	e, ok := exp.Find(s.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", s.Experiment)
	}
	p := exp.DefaultParams()
	if s.Scale != 0 {
		p.Scale = s.Scale
	}
	p.Workloads = s.Workloads
	out, err := e.Run(p)
	if err != nil {
		return nil, err
	}
	return []byte(out + "\n"), nil
}

// refJob computes the reference entry of one catalogue entry: its digest
// and, for a CMN design point, its memcpy-dependent times.
type refJob struct {
	key string
	run func() (string, *cmnTimes, error)
}

// catalogueJobs lists every catalogue entry of every workload.
func catalogueJobs() []refJob {
	var jobs []refJob
	for _, p := range sweepCatalogue() {
		jobs = append(jobs, refJob{p.key(), func() (string, *cmnTimes, error) {
			res, err := core.Run(p.config())
			if err != nil {
				return "", nil, err
			}
			sum, t := resultEntry(res)
			return sum, t, nil
		}})
	}
	for _, p := range nocCatalogue() {
		jobs = append(jobs, refJob{p.key(), func() (string, *cmnTimes, error) {
			lp, err := noc.RunSynthetic(p.spec(), noc.DefaultConfig(), p.synthetic(), p.Load)
			if err != nil {
				return "", nil, err
			}
			return loadPointDigest(lp), nil, nil
		}})
	}
	for _, s := range append(coldCatalogue(), warmCatalogue()...) {
		jobs = append(jobs, refJob{s.key(), func() (string, *cmnTimes, error) {
			out, err := registryOutput(s)
			if err != nil {
				return "", nil, err
			}
			return digest(out), nil, nil
		}})
	}
	return jobs
}

// regenerate recomputes every catalogue entry and writes the reference
// file. Only a change that deliberately alters simulated output may do
// this (see README.md).
func regenerate(path string) error {
	jobs := catalogueJobs()
	type entry struct {
		sum string
		cmn *cmnTimes
	}
	entries, err := par.Map(context.Background(), runtime.NumCPU(), len(jobs),
		func(_ context.Context, i int) (entry, error) {
			d, t, err := jobs[i].run()
			if err != nil {
				return entry{}, fmt.Errorf("%s: %w", jobs[i].key, err)
			}
			return entry{d, t}, nil
		})
	if err != nil {
		return err
	}
	ref := reference{Format: refFormat, Entries: make(map[string]string, len(jobs)), CMN: map[string]cmnTimes{}}
	for i, j := range jobs {
		if _, dup := ref.Entries[j.key]; dup {
			return fmt.Errorf("duplicate catalogue key %s", j.key)
		}
		ref.Entries[j.key] = entries[i].sum
		if t := entries[i].cmn; t != nil {
			ref.CMN[j.key] = *t
		}
	}
	b, err := json.MarshalIndent(&ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
