// Command perfbench is memnet's benchmark. It runs one workload for a
// seeded input set, checks every output against a committed reference,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run) as one JSON object on the last line of
// standard output. README.md describes the workloads and metrics; run it
// through run.sh, which builds it and memnetd from source:
//
//	bash perfbench/run.sh --workload sweep-light --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --regen    # rewrite perfbench/reference.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric names a reported value and its unit.
type metric struct{ name, unit string }

// endToEnd are the untraced run's metrics, every one reported on every
// workload; README.md gives each one's meaning per workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"sim_p50_ms", "ms"},
	{"sim_p90_ms", "ms"},
	{"rss_mb", "MB"},
}

// cpuPackages are the packages whose share of CPU samples the traced run
// reports as <name>.cpu_frac.
var cpuPackages = []string{"noc", "sim", "pool", "gpu", "cache", "hmc", "dram",
	"cpu", "pcie", "core", "ske", "serve", "runtime"}

// perLayer are the traced run's metrics. A layer a workload does not run
// reports 0.
var perLayer = append([]metric{
	{"core.build_ms_p50", "ms"},
	{"core.exec_ms_p50", "ms"},
	{"core.alloc_mb_per_point", "MB"},
	{"core.dma_order_variants", "count"},
	{"sim.sim_us_per_point", "us"},
	{"sim.host_s_per_sim_ms", "s/ms"},
	{"noc.flits", "count"},
	{"noc.cycles", "count"},
	{"noc.chan_util", "ratio"},
	{"noc.host_ns_per_flit", "ns"},
	{"noc.synth_point_ms_p50", "ms"},
	{"cache.l1_hit", "ratio"},
	{"cache.l2_hit", "ratio"},
	{"hmc.row_hit", "ratio"},
	{"ske.ctas_stolen", "count"},
	{"par.busy_frac", "ratio"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.run_s_p50", "s"},
	{"serve.sims_run", "count"},
	{"serve.hits_memory", "count"},
	{"serve.hits_disk", "count"},
	{"serve.deduped", "count"},
	{"cachedir.writes", "count"},
	{"journal.bytes", "B"},
	{"journal.replay_records", "count"},
	{"trace.overhead_frac", "ratio"},
}, cpuMetrics()...)

func cpuMetrics() []metric {
	var out []metric
	for _, p := range cpuPackages {
		out = append(out, metric{p + ".cpu_frac", "ratio"})
	}
	return out
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ref      string // reference file
	memnetd  string // memnetd binary (serve-mixed)
	work     string // scratch and trace-artifact directory
	width    int    // simulation threads: nproc
}

// report is one run's outcome.
type report struct {
	tally
	values map[string]float64
	notes  []string // human-readable lines: sample counts, artifacts
}

func (r *report) set(name string, v float64) { r.values[name] = v }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*report, error){
	"sweep-light":   runSweepLight,
	"noc-saturated": runNocSaturated,
	"serve-mixed":   runServeMixed,
}

func main() {
	var o options
	var traceFlag int
	regen := flag.Bool("regen", false, "recompute every catalogue entry and rewrite the reference file")
	flag.StringVar(&o.workload, "workload", "", "sweep-light, noc-saturated or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.ref, "ref", "perfbench/reference.json", "reference file")
	flag.StringVar(&o.memnetd, "memnetd", ".bench_build/bin/memnetd", "memnetd binary")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "scratch and trace-artifact directory")
	flag.Parse()
	o.trace = traceFlag == 1
	o.width = runtime.NumCPU()

	if *regen {
		if err := regenerate(o.ref); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: wrote", o.ref)
		return
	}
	run, ok := workloads[o.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fail(err)
	}
	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	emit(o, rep)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the human-readable summary on stderr and the result object
// as the last line of stdout.
func emit(o options, rep *report) {
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}

	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v width=%d\n", o.workload, o.seed, o.trace, o.width)
	for _, m := range set {
		v, ok := rep.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			fmt.Fprintf(w, "  %-26s missing\n", m.name)
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.name, v, m.unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  failed_frac %.4f (%d of %d ops)\n", rep.failedFrac(), rep.failed, rep.attempted)
	for i, e := range rep.errs {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(rep.errs)-i)
			break
		}
		fmt.Fprintln(w, "  FAILED", e)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// newReport returns a report with every metric of the run's set at zero,
// so layers a workload does not run report 0.
func newReport(o options) *report {
	r := &report{values: map[string]float64{}}
	if o.trace {
		for _, m := range perLayer {
			r.values[m.name] = 0
		}
	}
	return r
}

// timeSetups runs set-up n times and returns the median wall time in s.
func timeSetups(n int, setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// setCPU stores a CPU profile next to the spans, folds it into the
// <pkg>.cpu_frac metrics and writes the fold beside it.
func setCPU(o options, rep *report, prof []byte, root string) error {
	profFile := artifact(o, "cpu.pprof")
	if err := os.WriteFile(profFile, prof, 0o644); err != nil {
		return err
	}
	fold, err := foldProfile(profFile, root)
	if err != nil {
		return err
	}
	for _, p := range cpuPackages {
		path := "memnet/internal/" + p
		if p == "runtime" {
			path = p
		}
		rep.set(p+".cpu_frac", fold.share(path))
	}
	file := artifact(o, "cpufold.txt")
	rep.note("cpu fold: %.0f CPU ms, %.0f under %s -> %s", ms(fold.Total), ms(fold.InRoot), root, file)
	return fold.write(file)
}

// writeSpans stores the traced run's spans and notes each span's total
// and self time.
func writeSpans(o options, rep *report, tr *tracer) error {
	file := artifact(o, "spans.jsonl")
	rep.note("spans: %d -> %s", len(tr.spans), file)
	for _, lt := range tr.selfTimes() {
		rep.note("  span %-18s n=%-6d total=%10.1f ms  self=%10.1f ms", lt.Name, lt.Count,
			lt.Total.Seconds()*1000, lt.Self.Seconds()*1000)
	}
	return tr.write(file)
}

func artifact(o options, suffix string) string {
	return filepath.Join(o.work, fmt.Sprintf("%s-seed%d.%s", o.workload, o.seed, suffix))
}

// describeTail notes which percentile a tail metric holds and how many
// samples back it.
func describeTail(rep *report, name string, s samples, q float64, what string) float64 {
	v, used := s.tail(q)
	rep.note("%-12s = p%.0f of %d %s (%d beyond): %.4g ms", name, 100*used, len(s), what, beyond(len(s), used), v)
	return v
}
