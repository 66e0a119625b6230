// Command memnetsim runs one multi-GPU simulation and prints its runtime
// breakdown and statistics.
//
// Usage:
//
//	memnetsim -arch UMN -workload BFS -scale 0.5
//	memnetsim -arch GMN -topo sMESH -gpus 8 -sched round-robin
//	memnetsim -arch UMN -workload CG.S -overlay -traffic
//	memnetsim -arch UMN -workload BP -trace run.trace.json -metrics run.csv
//	memnetsim -arch UMN -workload BP -profile run.profile.json
//	memnetsim -arch UMN -workload BP -fault-links 2 -fault-gpus 1 -audit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"memnet"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/ske"
	"memnet/internal/workload"
)

func main() {
	arch := flag.String("arch", "UMN", "architecture: PCIe PCIe-ZC CMN CMN-ZC GMN GMN-ZC UMN")
	wl := flag.String("workload", "VA", fmt.Sprintf("workload: %v", memnet.Workloads()))
	scale := flag.Float64("scale", 0.25, "input scale (1.0 = default simulation size)")
	gpus := flag.Int("gpus", 4, "number of GPUs")
	topo := flag.String("topo", "sFBFLY", "memory-network topology (GMN/UMN): sFBFLY dFBFLY dDFLY sMESH sTORUS")
	mult := flag.Int("mult", 1, "channel multiplier (2 = the -2x variants)")
	overlay := flag.Bool("overlay", false, "UMN CPU pass-through overlay")
	ugal := flag.Bool("ugal", false, "UGAL adaptive injection routing")
	adaptive := flag.Bool("adaptive", false, "adaptive minimal-port selection")
	sched := flag.String("sched", "static-chunk", "CTA assignment: static-chunk round-robin static+steal")
	seed := flag.Int64("seed", 1, "placement seed")
	traffic := flag.Bool("traffic", false, "print the GPU-to-HMC traffic matrix")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON")
	replayFile := flag.String("replay", "", "replay a kernel trace file instead of a built-in workload")
	traceOut := flag.String("trace", "", "write a simulated-time timeline of the run to this file (Chrome trace_event JSON, opens in ui.perfetto.dev)")
	metricsOut := flag.String("metrics", "", "write windowed metrics to this file (CSV, or JSONL with a .jsonl name)")
	metricsEpoch := flag.String("metrics-epoch", "", "metrics sampling window, e.g. 500ns or 1us (default 1us)")
	profileOut := flag.String("profile", "", "write a latency-attribution profile of the run to this file (JSON, readable by memnetprof)")
	dumpOnDeadlock := flag.Bool("dump-state-on-deadlock", false, "append a full network state dump to a phase-deadlock error")
	nopool := flag.Bool("nopool", false, "disable packet pooling (results are byte-identical either way; exists for CI verification)")
	auditFlag := flag.Bool("audit", false, "check conservation invariants at every phase boundary (results are byte-identical either way)")
	faultsFile := flag.String("faults", "", "JSON fault-injection schedule (see internal/fault; empty = no faults)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for generated fault schedules and auto link picks")
	faultHorizon := flag.String("fault-horizon", "", "window generated faults are drawn from, e.g. 100us (default 1ms)")
	faultTransients := flag.Int("fault-transients", 0, "generate N transient link-error bursts")
	faultLinks := flag.Int("fault-links", 0, "permanently fail N survivable link pairs")
	faultGPUs := flag.Int("fault-gpus", 0, "fail-stop N GPUs mid-run")
	faultVaults := flag.Int("fault-vaults", 0, "fail-stop N HMC vaults mid-run")
	faultPCIe := flag.Int("fault-pcie", 0, "generate N PCIe transfer-timeout bursts")
	watchdog := flag.String("watchdog", "", "phase forward-progress window, e.g. 10ms; 'off' disables (default 5ms)")
	flag.Parse()

	a, err := memnet.ParseArch(*arch)
	check(err)
	tk, err := memnet.ParseTopo(*topo)
	check(err)
	pol, err := ske.ParsePolicy(*sched)
	check(err)

	// Validate every numeric flag and output path upfront: a bad value or
	// an unwritable destination used to surface only mid-run (or, for the
	// trace file, only after the whole simulation had finished).
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
		check(fmt.Errorf("-scale must be a positive finite number, got %v", *scale))
	}
	if *gpus <= 0 {
		check(fmt.Errorf("-gpus must be positive, got %d", *gpus))
	}
	if *mult < 1 {
		check(fmt.Errorf("-mult must be at least 1, got %d", *mult))
	}
	for _, f := range []struct {
		name string
		val  int
	}{
		{"-fault-transients", *faultTransients}, {"-fault-links", *faultLinks},
		{"-fault-gpus", *faultGPUs}, {"-fault-vaults", *faultVaults},
		{"-fault-pcie", *faultPCIe},
	} {
		if f.val < 0 {
			check(fmt.Errorf("%s must be non-negative, got %d", f.name, f.val))
		}
	}
	for _, out := range []string{*traceOut, *metricsOut, *profileOut} {
		if out != "" {
			check(obs.CheckWritable(out))
		}
	}

	cfg := core.DefaultConfig(a, *wl)
	cfg.Scale = *scale
	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		check(err)
		tk, err := workload.ReadTrace(f)
		f.Close()
		check(err)
		cfg.Custom = workload.FromTrace(tk)
	}
	cfg.TraceOut = *traceOut
	cfg.MetricsOut = *metricsOut
	cfg.ProfileOut = *profileOut
	if *metricsEpoch != "" {
		cfg.MetricsEpoch, err = obs.ParseDuration(*metricsEpoch)
		check(err)
	}
	cfg.DumpStateOnDeadlock = *dumpOnDeadlock
	if *auditFlag {
		cfg.Audit = core.AuditOn
	}
	cfg.Net.NoPacketPool = *nopool
	cfg.NumGPUs = *gpus
	cfg.Topo = tk
	cfg.TopoMultiplier = *mult
	cfg.Overlay = *overlay
	cfg.UGAL = *ugal
	cfg.Adaptive = *adaptive
	cfg.Sched = pol
	cfg.Seed = *seed
	if *faultsFile != "" {
		cfg.Faults, err = fault.LoadFile(*faultsFile)
		check(err)
	}
	cfg.FaultRates = fault.Rates{Seed: *faultSeed, Transients: *faultTransients,
		FailLinks: *faultLinks, FailGPUs: *faultGPUs, FailVaults: *faultVaults,
		PCIeTimeouts: *faultPCIe}
	if *faultHorizon != "" {
		cfg.FaultRates.Horizon, err = obs.ParseDuration(*faultHorizon)
		check(err)
	}
	switch *watchdog {
	case "":
	case "off":
		cfg.Watchdog = -1
	default:
		cfg.Watchdog, err = obs.ParseDuration(*watchdog)
		check(err)
	}

	res, err := core.Run(cfg)
	check(err)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(res))
		return
	}

	us := func(t memnet.Time) float64 { return float64(t) / 1e6 }
	fmt.Printf("workload %s on %s (%d GPUs, %s, sched %s)\n",
		res.Workload, res.Arch, res.NumGPUs, res.Topo, pol)
	fmt.Printf("  H2D memcpy   %10.1f us\n", us(res.H2D))
	fmt.Printf("  kernel       %10.1f us\n", us(res.Kernel))
	fmt.Printf("  host compute %10.1f us\n", us(res.Host))
	fmt.Printf("  D2H memcpy   %10.1f us\n", us(res.D2H))
	fmt.Printf("  total        %10.1f us\n", us(res.Total))
	fmt.Printf("network: %d bidirectional channels, avg packet latency %.1f ns, avg hops %.2f",
		res.RouterChannels, float64(res.AvgPktLatency)/1e3, res.AvgHops)
	if res.AvgPassHops > 0 {
		fmt.Printf(" (pass-through %.2f)", res.AvgPassHops)
	}
	fmt.Println()
	fmt.Printf("energy: %.2f uJ network (%.2f active + %.2f idle)\n",
		res.NetEnergyJ*1e6, res.NetActiveJ*1e6, res.NetIdleJ*1e6)
	fmt.Printf("caches: L1 %.1f%%, L2 %.1f%% hit; DRAM row hits %.1f%%\n",
		100*res.L1HitRate, 100*res.L2HitRate, 100*res.RowHitRate)
	fmt.Printf("GPU memory latency %.1f ns; host memory latency %.1f ns\n",
		float64(res.GPUMemLatency)/1e3, float64(res.HostMemLat)/1e3)
	fmt.Printf("CTAs per GPU: %v", res.CTAsPerGPU)
	if res.CTAsStolen > 0 {
		fmt.Printf(" (%d stolen)", res.CTAsStolen)
	}
	fmt.Println()
	if *traffic {
		fmt.Println("traffic matrix (terminal x HMC, flits):")
		fmt.Print(res.Traffic)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "memnetsim:", err)
		os.Exit(1)
	}
}
