// Command experiments regenerates the figures and tables of "Multi-GPU
// System Design with Memory Networks" (MICRO 2014).
//
// Usage:
//
//	experiments -exp all            # every experiment (slow)
//	experiments -exp fig14 -scale 0.5
//	experiments -exp fig19 -gpus 1,2,4,8,16
//	experiments -exp fig10,fig12
//	experiments -exp all -par 8     # fan runs out over 8 workers
//	experiments -exp fig14 -cpuprofile cpu.pprof
//	experiments -exp fig7 -trace traces/ -metrics metrics/
//	experiments -exp fig12 -profile profiles/
//
// Known experiments: fig7 fig10 fig12 fig14 fig15 fig16 fig17 fig18 fig19
// ctasched placement table2 degradation.
//
// Each experiment's runs are independent simulations; -par (default:
// MEMNET_PAR or the CPU count) selects how many execute concurrently.
// Output is byte-identical at any parallelism. Wall-clock, aggregate
// compute time and the achieved speedup are reported on stderr.
//
// The experiment table itself lives in internal/exp (Experiments); this
// command and cmd/memnetd render the same registry, so a served result is
// byte-identical to the CLI's output for the same parameters.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"memnet"
	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/par"
	"memnet/internal/prof"
)

func main() {
	which := flag.String("exp", "all", "comma-separated experiments to run (fig7,...,fig19,ctasched,placement,table2,all)")
	scale := flag.Float64("scale", 0.25, "workload scale (1.0 = default simulation size)")
	gpus := flag.String("gpus", "1,2,4,8,16", "GPU counts for fig19")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: per-figure set)")
	parFlag := flag.Int("par", 0, "concurrent simulations (0 = MEMNET_PAR env or CPU count)")
	quiet := flag.Bool("quiet", false, "suppress per-experiment timing on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile after the sweep to this file")
	nopool := flag.Bool("nopool", false, "disable packet pooling (results are byte-identical either way; exists for CI verification)")
	auditFlag := flag.Bool("audit", false, "check conservation invariants at every phase boundary of every run (results are byte-identical either way)")
	traceDir := flag.String("trace", "", "write one Perfetto trace per run into this directory")
	metricsDir := flag.String("metrics", "", "write one windowed-metrics CSV per run into this directory")
	metricsEpoch := flag.String("metrics-epoch", "", "metrics sampling window, e.g. 500ns or 1us (default 1us)")
	profileDir := flag.String("profile", "", "write one latency-attribution profile per run into this directory, each with a one-page .summary.txt")
	faultsFile := flag.String("faults", "", "JSON fault-injection schedule applied to every run (see internal/fault)")
	degLinks := flag.Int("deg-links", 4, "max failed link pairs for the degradation sweep")
	flag.Parse()
	var faults *fault.Schedule
	if *faultsFile != "" {
		var err error
		faults, err = fault.LoadFile(*faultsFile)
		if err != nil {
			fatal(err)
		}
	}
	var epoch memnet.Time
	if *metricsEpoch != "" {
		var err error
		epoch, err = obs.ParseDuration(*metricsEpoch)
		if err != nil {
			fatal(err)
		}
	}
	for _, dir := range []string{*traceDir, *metricsDir, *profileDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}
	// configure applies the run-level flags to every run of experiment
	// name. Prefixing the run id with the experiment keeps the per-run
	// files of a multi-experiment sweep apart.
	configure := func(name string) exp.Configure {
		return func(cfg *core.Config, run string) {
			run = name + "-" + run
			if *auditFlag {
				cfg.Audit = core.AuditOn
			}
			cfg.Net.NoPacketPool = *nopool
			cfg.Faults = faults
			if *traceDir != "" {
				cfg.TraceOut = filepath.Join(*traceDir, run+".trace.json")
			}
			if *metricsDir != "" {
				cfg.MetricsOut = filepath.Join(*metricsDir, run+".metrics.csv")
			}
			cfg.MetricsEpoch = epoch
			if *profileDir != "" {
				cfg.ProfileOut = filepath.Join(*profileDir, run+".profile.json")
			}
		}
	}

	// Fail fast on an invalid explicit -par instead of silently falling
	// back to the default width.
	if *parFlag < 0 {
		fatal(fmt.Errorf("-par must be a positive integer, got %d", *parFlag))
	}
	if *parFlag > 0 {
		par.SetParallelism(*parFlag)
	}

	var wls []string
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			wls = append(wls, strings.TrimSpace(w))
		}
	}
	var gpuCounts []int
	for _, s := range strings.Split(*gpus, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		gpuCounts = append(gpuCounts, n)
	}

	// Validate every parameter upfront — a bad scale, workload name or GPU
	// count used to surface only once its first simulation was reached,
	// possibly hours into a sweep.
	params := exp.Params{Scale: *scale, Workloads: wls, GPUs: gpuCounts, DegLinks: *degLinks}
	if *scale <= 0 {
		fatal(fmt.Errorf("-scale must be positive, got %v", *scale))
	}
	if *degLinks < 0 {
		fatal(fmt.Errorf("-deg-links must be non-negative, got %d", *degLinks))
	}
	if err := params.Validate(); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*which, ",") {
		want[strings.TrimSpace(e)] = true
	}
	// fig16 and fig17 share the same runs and table.
	if want["fig17"] {
		want["fig16"] = true
	}
	all := want["all"]

	ran := 0
	sweepStart := time.Now()
	sweepBusy := par.BusyTime()
	for _, e := range exp.Experiments() {
		if !all && !want[e.Name] {
			continue
		}
		start := time.Now()
		busy := par.BusyTime()
		p := params
		p.Configure = configure(e.Name)
		out, err := e.Run(p)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		if !*quiet {
			report(e.Name, time.Since(start), par.BusyTime()-busy)
		}
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q", *which))
	}
	if !*quiet && ran > 1 {
		report("total", time.Since(sweepStart), par.BusyTime()-sweepBusy)
	}

	if *profileDir != "" {
		if err := summarizeProfiles(*profileDir); err != nil {
			fatal(err)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// summarizeProfiles writes a one-page human-readable summary next to
// every profile the sweep produced: "<run>.profile.json" gets a sibling
// "<run>.summary.txt".
func summarizeProfiles(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.profile.json"))
	if err != nil {
		return err
	}
	for _, file := range files {
		p, err := prof.LoadFile(file)
		if err != nil {
			return err
		}
		out := strings.TrimSuffix(file, ".profile.json") + ".summary.txt"
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		prof.Summary(f, p)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// report prints one timing line: elapsed wall clock, the simulation time
// summed over all workers, and their ratio (the achieved speedup from
// fanning runs out; 1.0x means fully sequential).
func report(name string, wall, busy time.Duration) {
	speedup := 1.0
	if wall > 0 && busy > 0 {
		speedup = busy.Seconds() / wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "[%s] wall %.2fs, compute %.2fs, speedup %.2fx (par %d)\n",
		name, wall.Seconds(), busy.Seconds(), speedup, par.Parallelism())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
