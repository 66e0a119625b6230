// Package exp regenerates every figure and table of the paper's evaluation
// (Section VI). Each Fig* function runs the required simulations and
// returns a result that renders to an aligned text table mirroring the
// figure's series; cmd/experiments prints them and the repository-level
// benchmarks report their headline metrics.
//
// Scale selects the workload input size (1.0 = the repository's default
// simulation size). The paper's absolute sizes are impractical in pure
// software simulation; the experiments preserve relative behavior.
//
// Every figure is a matrix of independent core.Run invocations; each
// function below describes its matrix as a job list and submits it to the
// internal/par worker pool, so a sweep uses every core the machine has
// (internal/par.SetParallelism / MEMNET_PAR / cmd/experiments -par select
// the width). Results are assembled in job order, so the rendered tables
// are byte-identical at any parallelism.
//
// Per-run settings that do not change results — auditing, tracing,
// profiling, progress sinks, stop latches, fault schedules — reach those
// internally built configs through a Configure hook, applied to each run
// just before it executes.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"memnet/internal/core"
	"memnet/internal/noc"
	"memnet/internal/par"
	"memnet/internal/sim"
	"memnet/internal/ske"
	"memnet/internal/stats"
	"memnet/internal/workload"
)

// us converts picoseconds to microseconds for display.
func us(t sim.Time) float64 { return float64(t) / 1e6 }

// Configure adjusts one run's Config just before it executes. run is a
// deterministic id, "<index>-<workload>-<arch>", where index is the run's
// position in its experiment's job list, zero-padded (at least three
// digits) so ids sort in job order; per-run output files named after it
// are the same at any parallelism. A nil Configure runs every Config as
// built.
type Configure func(cfg *core.Config, run string)

// runAll fans a list of run configurations out across the worker pool,
// applying configure to each, and returns the results in job order.
func runAll(cfgs []core.Config, configure Configure) ([]*core.Result, error) {
	// Pad the index to a common width so run ids sort in job order.
	width := max(3, len(strconv.Itoa(len(cfgs)-1)))
	return par.Map(context.Background(), 0, len(cfgs),
		func(_ context.Context, i int) (*core.Result, error) {
			cfg := cfgs[i]
			if configure != nil {
				configure(&cfg, fmt.Sprintf("%0*d-%s-%s", width, i, cfg.Workload, cfg.Arch))
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", cfg.Workload, cfg.Arch, err)
			}
			return res, nil
		})
}

// Fig14Workloads are the Table II workloads evaluated in Fig. 14.
func Fig14Workloads() []string {
	return []string{"BP", "BFS", "SRAD", "KMN", "BH", "SP", "SCAN",
		"3DFD", "FWT", "CG.S", "FT.S", "RAY", "STO", "CP"}
}

// ScalabilityWorkloads are the Fig. 19 subset.
func ScalabilityWorkloads() []string {
	return []string{"3DFD", "BP", "CP", "FWT", "RAY", "SCAN", "SRAD"}
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Point is one bar of Fig. 7: data spread over k GPU memories.
type Fig7Point struct {
	DataGPUs   int
	Kernel     sim.Time
	Normalized float64 // vs. the all-local point
}

// Fig7Result reproduces Fig. 7: vectorAdd on one GPU with data distributed
// across 1, 2 and 4 GPU memories, on (a) the PCIe baseline (modeled with
// the M2050 testbed's PCIe v2 bandwidth) and (b) the GPU memory network.
type Fig7Result struct {
	PCIe []Fig7Point
	GMN  []Fig7Point
}

// Fig7 runs the Fig. 7 experiment.
func Fig7(scale float64, configure Configure) (*Fig7Result, error) {
	config := func(arch core.Arch, k int, pcieBW float64) core.Config {
		cfg := core.DefaultConfig(arch, "VA")
		cfg.Scale = scale
		cfg.ExecGPUs = 1
		clusters := make([]int, k)
		for i := range clusters {
			clusters[i] = i
		}
		cfg.DataClusters = clusters
		if pcieBW > 0 {
			cfg.PCIe.BytesPerSec = pcieBW
		}
		return cfg
	}
	ks := []int{1, 2, 4}
	var cfgs []core.Config
	for _, k := range ks {
		cfgs = append(cfgs, config(core.PCIe, k, 8e9)) // the Fig. 7a machine is PCIe v2
	}
	for _, k := range ks {
		cfgs = append(cfgs, config(core.GMN, k, 0))
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{}
	for i, k := range ks {
		out.PCIe = append(out.PCIe, Fig7Point{DataGPUs: k, Kernel: results[i].Kernel})
		out.GMN = append(out.GMN, Fig7Point{DataGPUs: k, Kernel: results[len(ks)+i].Kernel})
	}
	norm := func(ps []Fig7Point) {
		base := float64(ps[0].Kernel)
		for i := range ps {
			ps[i].Normalized = float64(ps[i].Kernel) / base
		}
	}
	norm(out.PCIe)
	norm(out.GMN)
	return out, nil
}

func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — vectorAdd on 1 GPU, data across k GPU memories (normalized runtime)\n")
	fmt.Fprintf(&b, "%-22s %8s %8s %8s\n", "", "k=1", "k=2", "k=4")
	row := func(name string, ps []Fig7Point) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, p := range ps {
			fmt.Fprintf(&b, " %8.2f", p.Normalized)
		}
		fmt.Fprintf(&b, "   (%.1f / %.1f / %.1f us)\n", us(ps[0].Kernel), us(ps[1].Kernel), us(ps[2].Kernel))
	}
	row("(a) PCIe (M2050-like)", r.PCIe)
	row("(b) GMN (sFBFLY)", r.GMN)
	return b.String()
}

// ---------------------------------------------------------------- Fig. 10

// Fig10Result holds the GPU-to-HMC traffic distribution for one workload.
type Fig10Result struct {
	Workload string
	// Fraction[g][h] is the share of total traffic between GPU g and HMC h.
	Fraction [][]float64
	// Imbalance is the max/min ratio over per-HMC column totals.
	Imbalance float64
}

// Fig10 measures traffic distributions for KMN (near-uniform) and CG.S
// (imbalanced) on the 4GPU-16HMC system.
func Fig10(scale float64, configure Configure) ([]*Fig10Result, error) {
	workloads := []string{"KMN", "CG.S"}
	var cfgs []core.Config
	for _, wl := range workloads {
		cfg := core.DefaultConfig(core.GMN, wl)
		cfg.Scale = scale
		cfgs = append(cfgs, cfg)
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	var out []*Fig10Result
	for i, wl := range workloads {
		cfg, res := cfgs[i], results[i]
		m := res.Traffic
		// Keep GPU terminals x GPU-cluster HMC routers only.
		g := cfg.NumGPUs
		hmcs := cfg.NumGPUs * cfg.HMCsPerGPU
		fr := make([][]float64, g)
		var total float64
		for i := 0; i < g; i++ {
			fr[i] = make([]float64, hmcs)
			for h := 0; h < hmcs; h++ {
				fr[i][h] = float64(m.At(i, h))
				total += fr[i][h]
			}
		}
		for i := range fr {
			for h := range fr[i] {
				fr[i][h] /= total
			}
		}
		// Column imbalance over HMCs.
		min, max := -1.0, 0.0
		for h := 0; h < hmcs; h++ {
			var col float64
			for i := 0; i < g; i++ {
				col += fr[i][h]
			}
			if col > max {
				max = col
			}
			if col > 0 && (min < 0 || col < min) {
				min = col
			}
		}
		imb := 1.0
		if min > 0 {
			imb = max / min
		}
		out = append(out, &Fig10Result{Workload: wl, Fraction: fr, Imbalance: imb})
	}
	return out, nil
}

func (r *Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — traffic distribution, %s (imbalance %.1fx)\n", r.Workload, r.Imbalance)
	fmt.Fprintf(&b, "%6s", "")
	for h := range r.Fraction[0] {
		fmt.Fprintf(&b, " HMC%02d", h)
	}
	fmt.Fprintln(&b)
	for g, row := range r.Fraction {
		fmt.Fprintf(&b, "GPU%-3d", g)
		for _, v := range row {
			fmt.Fprintf(&b, " %5.2f", 100*v)
		}
		fmt.Fprintln(&b, " %")
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 12

// Fig12Row compares channel counts for one system size.
type Fig12Row struct {
	GPUs           int
	DFBFLY, SFBFLY int
	Reduction      float64
}

// Fig12 counts bidirectional router channels for dFBFLY vs sFBFLY.
func Fig12() ([]Fig12Row, error) {
	sizes := []int{2, 4, 8, 16}
	type job struct {
		gpus int
		kind noc.TopoKind
	}
	var jobs []job
	for _, g := range sizes {
		jobs = append(jobs, job{g, noc.TopoDFBFLY}, job{g, noc.TopoSFBFLY})
	}
	counts, err := par.Map(context.Background(), 0, len(jobs),
		func(_ context.Context, i int) (int, error) {
			b, err := noc.BuildTopology(sim.NewEngine(), noc.DefaultConfig(), noc.TopoSpec{
				Kind: jobs[i].kind, Clusters: jobs[i].gpus,
				LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1,
			})
			if err != nil {
				return 0, err
			}
			return b.BidirRouterChannels(), nil
		})
	if err != nil {
		return nil, err
	}
	var out []Fig12Row
	for i, g := range sizes {
		d, s := counts[2*i], counts[2*i+1]
		out = append(out, Fig12Row{GPUs: g, DFBFLY: d, SFBFLY: s,
			Reduction: 1 - float64(s)/float64(d)})
	}
	return out, nil
}

// Fig12String renders the table.
func Fig12String(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 12 — bidirectional channel counts")
	fmt.Fprintf(&b, "%6s %8s %8s %10s\n", "GPUs", "dFBFLY", "sFBFLY", "reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %8d %8d %9.0f%%\n", r.GPUs, r.DFBFLY, r.SFBFLY, 100*r.Reduction)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 14

// Fig14Cell is one bar of Fig. 14.
type Fig14Cell struct {
	Arch   string
	H2D    sim.Time
	Kernel sim.Time
	Host   sim.Time
	D2H    sim.Time
	Total  sim.Time
}

// Fig14Row is one workload's bars.
type Fig14Row struct {
	Workload string
	Cells    []Fig14Cell
}

// Fig14Result is the full runtime-breakdown comparison.
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14 runs every architecture of Table III on the given workloads
// (default: all of Table II).
func Fig14(scale float64, workloads []string, configure Configure) (*Fig14Result, error) {
	if len(workloads) == 0 {
		workloads = Fig14Workloads()
	}
	archs := core.Architectures()
	var cfgs []core.Config
	for _, wl := range workloads {
		for _, arch := range archs {
			cfg := core.DefaultConfig(arch, wl)
			cfg.Scale = scale
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	cells := make([]Fig14Cell, len(results))
	for i, res := range results {
		cells[i] = Fig14Cell{
			Arch: cfgs[i].Arch.String(), H2D: res.H2D, Kernel: res.Kernel,
			Host: res.Host, D2H: res.D2H, Total: res.Total,
		}
	}
	out := &Fig14Result{}
	for r, wl := range workloads {
		out.Rows = append(out.Rows, Fig14Row{
			Workload: wl,
			Cells:    cells[r*len(archs) : (r+1)*len(archs)],
		})
	}
	return out, nil
}

// Speedup returns the geometric-mean total-runtime speedup of arch b over
// arch a across all rows.
func (r *Fig14Result) Speedup(a, b string) float64 {
	var ratios []float64
	for _, row := range r.Rows {
		var ta, tb sim.Time
		for _, c := range row.Cells {
			if c.Arch == a {
				ta = c.Total
			}
			if c.Arch == b {
				tb = c.Total
			}
		}
		if ta > 0 && tb > 0 {
			ratios = append(ratios, float64(ta)/float64(tb))
		}
	}
	return stats.Geomean(ratios)
}

// KernelSpeedup is Speedup over kernel time only.
func (r *Fig14Result) KernelSpeedup(a, b string) (geomean, max float64) {
	var ratios []float64
	for _, row := range r.Rows {
		var ta, tb sim.Time
		for _, c := range row.Cells {
			if c.Arch == a {
				ta = c.Kernel
			}
			if c.Arch == b {
				tb = c.Kernel
			}
		}
		if ta > 0 && tb > 0 {
			v := float64(ta) / float64(tb)
			ratios = append(ratios, v)
			if v > max {
				max = v
			}
		}
	}
	return stats.Geomean(ratios), max
}

func (r *Fig14Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 14 — runtime breakdown (us): memcpy(H2D+D2H) + kernel + host")
	fmt.Fprintf(&b, "%-6s", "")
	for _, c := range r.Rows[0].Cells {
		fmt.Fprintf(&b, " %18s", c.Arch)
	}
	fmt.Fprintln(&b)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s", row.Workload)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %7.0f+%6.0f=%4.0fk", us(c.H2D+c.D2H), us(c.Kernel+c.Host), us(c.Total)/1000)
		}
		fmt.Fprintln(&b)
	}
	gm, mx := r.KernelSpeedup("PCIe", "GMN")
	fmt.Fprintf(&b, "GMN kernel speedup over PCIe: geomean %.2fx, max %.2fx\n", gm, mx)
	fmt.Fprintf(&b, "UMN total speedup over PCIe: %.2fx\n", r.Speedup("PCIe", "UMN"))
	fmt.Fprintf(&b, "CMN total speedup over PCIe: %.2fx\n", r.Speedup("PCIe", "CMN"))
	fmt.Fprintf(&b, "CMN-ZC total speedup over PCIe: %.2fx\n", r.Speedup("PCIe", "CMN-ZC"))
	return b.String()
}

// ---------------------------------------------------------------- Fig. 15

// Fig15Row compares minimal vs UGAL routing for one workload and topology.
type Fig15Row struct {
	Workload string
	Topo     string
	MinTime  sim.Time
	UGALTime sim.Time
	Gain     float64 // (min - ugal) / min
}

// Fig15 evaluates routing on dDFLY and dFBFLY for representative
// workloads (KMN and CP show ~no gain; CG.S gains from adaptivity).
func Fig15(scale float64, configure Configure) ([]Fig15Row, error) {
	type pair struct {
		topo noc.TopoKind
		wl   string
	}
	var pairs []pair
	var cfgs []core.Config
	for _, topo := range []noc.TopoKind{noc.TopoDDFLY, noc.TopoDFBFLY} {
		for _, wl := range []string{"KMN", "CP", "CG.S"} {
			pairs = append(pairs, pair{topo, wl})
			for _, ugal := range []bool{false, true} {
				cfg := core.DefaultConfig(core.GMN, wl)
				cfg.Scale = scale
				cfg.Topo = topo
				cfg.UGAL = ugal
				cfg.Adaptive = ugal
				cfgs = append(cfgs, cfg)
			}
		}
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	var out []Fig15Row
	for i, p := range pairs {
		min, ugal := results[2*i].Kernel, results[2*i+1].Kernel
		out = append(out, Fig15Row{
			Workload: p.wl, Topo: p.topo.String(),
			MinTime: min, UGALTime: ugal,
			Gain: 1 - float64(ugal)/float64(min),
		})
	}
	return out, nil
}

// Fig15String renders the table.
func Fig15String(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 15 — minimal vs UGAL routing (kernel time, us)")
	fmt.Fprintf(&b, "%-8s %-8s %10s %10s %8s\n", "topo", "wl", "MIN", "UGAL", "gain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %10.1f %10.1f %7.1f%%\n",
			r.Topo, r.Workload, us(r.MinTime), us(r.UGALTime), 100*r.Gain)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 16/17

// TopoRow is one workload x topology measurement.
type TopoRow struct {
	Workload string
	Topo     string
	Mult     int
	Kernel   sim.Time
	EnergyJ  float64
	Channels int
}

// Fig16Topos lists the sliced-network designs compared in Fig. 16/17.
func Fig16Topos() []struct {
	Kind noc.TopoKind
	Mult int
	Name string
} {
	return []struct {
		Kind noc.TopoKind
		Mult int
		Name string
	}{
		{noc.TopoSMESH, 1, "sMESH"},
		{noc.TopoSMESH, 2, "sMESH-2x"},
		{noc.TopoSTORUS, 1, "sTORUS"},
		{noc.TopoSTORUS, 2, "sTORUS-2x"},
		{noc.TopoSFBFLY, 1, "sFBFLY"},
	}
}

// Fig16 compares the sliced topologies' kernel performance and network
// energy (Fig. 16 and Fig. 17 share the same runs).
func Fig16(scale float64, workloads []string, configure Configure) ([]TopoRow, error) {
	if len(workloads) == 0 {
		workloads = Fig14Workloads()
	}
	topos := Fig16Topos()
	type job struct {
		wl   string
		name string
		mult int
	}
	var jobs []job
	var cfgs []core.Config
	for _, wl := range workloads {
		for _, tp := range topos {
			cfg := core.DefaultConfig(core.GMN, wl)
			cfg.Scale = scale
			cfg.Topo = tp.Kind
			cfg.TopoMultiplier = tp.Mult
			jobs = append(jobs, job{wl, tp.Name, tp.Mult})
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	var out []TopoRow
	for i, j := range jobs {
		res := results[i]
		out = append(out, TopoRow{Workload: j.wl, Topo: j.name, Mult: j.mult,
			Kernel: res.Kernel, EnergyJ: res.NetEnergyJ, Channels: res.RouterChannels})
	}
	return out, nil
}

// TopoRowsString renders Fig. 16/17 rows.
func TopoRowsString(rows []TopoRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 16/17 — sliced network designs: kernel time (us) and network energy (uJ)")
	fmt.Fprintf(&b, "%-8s %-10s %10s %12s %9s\n", "wl", "topo", "kernel", "energy", "channels")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10s %10.1f %12.2f %9d\n",
			r.Workload, r.Topo, us(r.Kernel), r.EnergyJ*1e6, r.Channels)
	}
	return b.String()
}

// GeomeanBy returns the geometric-mean ratio of metric(topoA)/metric(topoB)
// across workloads shared by both topologies.
func GeomeanBy(rows []TopoRow, topoA, topoB string, metric func(TopoRow) float64) float64 {
	byWL := map[string]map[string]TopoRow{}
	for _, r := range rows {
		if byWL[r.Workload] == nil {
			byWL[r.Workload] = map[string]TopoRow{}
		}
		byWL[r.Workload][r.Topo] = r
	}
	var ratios []float64
	var wls []string
	for wl := range byWL {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		a, okA := byWL[wl][topoA]
		br, okB := byWL[wl][topoB]
		if okA && okB && metric(br) > 0 {
			ratios = append(ratios, metric(a)/metric(br))
		}
	}
	return stats.Geomean(ratios)
}

// ---------------------------------------------------------------- Fig. 18

// Fig18Row is host-thread performance for one UMN network design.
type Fig18Row struct {
	Workload string
	Design   string
	HostTime sim.Time
}

// Fig18 compares UMN designs for the host thread on the workloads that use
// the CPU (CG.S and FT.S), on a 1CPU-3GPU-16HMC system as in the paper.
func Fig18(scale float64, configure Configure) ([]Fig18Row, error) {
	designs := []struct {
		name    string
		topo    noc.TopoKind
		overlay bool
	}{
		{"sMESH", noc.TopoSMESH, false},
		{"sFBFLY", noc.TopoSFBFLY, false},
		{"overlay", noc.TopoSFBFLY, true},
	}
	type job struct {
		wl     string
		design string
	}
	var jobs []job
	var cfgs []core.Config
	for _, wl := range []string{"CG.S", "FT.S"} {
		for _, d := range designs {
			cfg := core.DefaultConfig(core.UMN, wl)
			cfg.Scale = scale
			cfg.NumGPUs = 3 // 1CPU-3GPU-16HMC
			cfg.Topo = d.topo
			cfg.Overlay = d.overlay
			jobs = append(jobs, job{wl, d.name})
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	var out []Fig18Row
	for i, j := range jobs {
		out = append(out, Fig18Row{Workload: j.wl, Design: j.design, HostTime: results[i].Host})
	}
	return out, nil
}

// Fig18String renders the table.
func Fig18String(rows []Fig18Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 18 — host thread (CPU) time on UMN designs (us, lower is better)")
	fmt.Fprintf(&b, "%-8s %-10s %10s\n", "wl", "design", "host")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10s %10.1f\n", r.Workload, r.Design, us(r.HostTime))
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 19

// Fig19Row is one workload's kernel speedup vs GPU count.
type Fig19Row struct {
	Workload string
	GPUs     []int
	Speedup  []float64
}

// Fig19 measures kernel-execution speedup as the GPU count grows on the
// UMN. The paper grew the input problem sizes for this study; simulating
// inputs that oversubscribe sixteen 64-SM GPUs is impractical in software,
// so the study shrinks each GPU to 8 SMs instead — the parallelism ratio
// (CTAs per SM slot) matches and the scaling shape is preserved.
func Fig19(scale float64, gpuCounts []int, configure Configure) ([]Fig19Row, float64, error) {
	if len(gpuCounts) == 0 {
		gpuCounts = []int{1, 2, 4, 8, 16}
	}
	workloads := ScalabilityWorkloads()
	var cfgs []core.Config
	for _, wl := range workloads {
		for _, g := range gpuCounts {
			cfg := core.DefaultConfig(core.UMN, wl)
			cfg.Scale = scale
			cfg.GPU.Cores = 8
			// The paper's ms-scale kernels amortize launch overheads;
			// at simulation scale they would dominate, so the study
			// measures execution scalability with them excluded.
			cfg.GPU.LaunchLatency = 0
			cfg.SKE.PageTableSync = 0
			cfg.NumGPUs = g
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, 0, err
	}
	var out []Fig19Row
	var lastSpeedups []float64
	for w, wl := range workloads {
		row := Fig19Row{Workload: wl, GPUs: gpuCounts}
		base := results[w*len(gpuCounts)].Kernel
		for g := range gpuCounts {
			row.Speedup = append(row.Speedup,
				float64(base)/float64(results[w*len(gpuCounts)+g].Kernel))
		}
		lastSpeedups = append(lastSpeedups, row.Speedup[len(row.Speedup)-1])
		out = append(out, row)
	}
	return out, stats.Geomean(lastSpeedups), nil
}

// Fig19String renders the table.
func Fig19String(rows []Fig19Row, geomean float64) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 19 — kernel speedup vs GPU count (UMN)")
	fmt.Fprintf(&b, "%-8s", "wl")
	for _, g := range rows[0].GPUs {
		fmt.Fprintf(&b, " %6dG", g)
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Workload)
		for _, s := range r.Speedup {
			fmt.Fprintf(&b, " %7.2f", s)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "geomean speedup at %d GPUs: %.1f\n", rows[0].GPUs[len(rows[0].GPUs)-1], geomean)
	return b.String()
}

// ---------------------------------------------------------------- §III-B

// SchedRow compares CTA assignment policies for one workload.
type SchedRow struct {
	Workload string
	Policy   string
	Kernel   sim.Time
	L1Hit    float64
	L2Hit    float64
	Stolen   int64
}

// CTASched reproduces the Section III-B scheduler comparison: static
// chunked assignment vs fine-grained round-robin vs static + stealing.
func CTASched(scale float64, workloads []string, configure Configure) ([]SchedRow, error) {
	if len(workloads) == 0 {
		workloads = []string{"SRAD", "BP", "KMN", "3DFD"}
	}
	type job struct {
		wl  string
		pol ske.Policy
	}
	var jobs []job
	var cfgs []core.Config
	for _, wl := range workloads {
		for _, pol := range []ske.Policy{ske.StaticChunk, ske.RoundRobin, ske.StaticSteal} {
			cfg := core.DefaultConfig(core.UMN, wl)
			cfg.Scale = scale
			cfg.Sched = pol
			jobs = append(jobs, job{wl, pol})
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	var out []SchedRow
	for i, j := range jobs {
		res := results[i]
		out = append(out, SchedRow{Workload: j.wl, Policy: j.pol.String(),
			Kernel: res.Kernel, L1Hit: res.L1HitRate, L2Hit: res.L2HitRate,
			Stolen: res.CTAsStolen})
	}
	return out, nil
}

// SchedString renders the scheduler table.
func SchedString(rows []SchedRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Section III-B — CTA assignment policies")
	fmt.Fprintf(&b, "%-8s %-14s %10s %7s %7s %7s\n", "wl", "policy", "kernel", "L1", "L2", "stolen")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-14s %10.1f %6.1f%% %6.1f%% %7d\n",
			r.Workload, r.Policy, us(r.Kernel), 100*r.L1Hit, 100*r.L2Hit, r.Stolen)
	}
	return b.String()
}

// TableII renders the workload table.
func TableII() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table II — evaluated workloads")
	fmt.Fprintf(&b, "%-6s %-30s %-28s %6s %8s\n", "abbr", "name", "paper input", "CTAs", "threads")
	for _, name := range workload.Names() {
		w, err := workload.New(name, 1.0)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%-6s %-30s %-28s %6d %8d\n",
			w.Abbr, w.FullName, w.InputDesc, w.NumCTAs(), w.ThreadsPerCTA())
	}
	return b.String()
}

// ------------------------------------------- extension: fault degradation

// degProbeLoad is the offered load of the degradation sweep, in request
// flits per terminal per cycle. At 1.0 every terminal injects each cycle —
// past every topology's saturation point, so accepted throughput measures
// surviving capacity.
const degProbeLoad = 1.0

// DegRow is one measurement of the link-failure degradation sweep.
type DegRow struct {
	Topo        string
	FailedLinks int     // survivable link pairs failed before traffic
	Throughput  float64 // delivered response flits/terminal/cycle at the probe load
	AvgLatency  float64 // mean round-trip latency, network cycles
}

// Degradation is an extension experiment beyond the paper: it measures how
// each topology's saturation throughput degrades as link pairs fail. For
// every topology it fails k = 0..maxFailed survivable channel pairs (same
// seed, so the failure sets are nested) and drives synthetic traffic past
// saturation. The star carries only cluster-local traffic (remote accesses
// use PCIe there); the FBFLY networks carry uniform-random traffic and
// route around the dead links via their path diversity.
func Degradation(maxFailed int) ([]DegRow, error) {
	if maxFailed <= 0 {
		maxFailed = 4
	}
	topos := []struct {
		name    string
		kind    noc.TopoKind
		pattern noc.TrafficPattern
	}{
		{"PCIe(star)", noc.TopoStar, noc.LocalUniform},
		{"sFBFLY", noc.TopoSFBFLY, noc.UniformRandom},
		{"dFBFLY", noc.TopoDFBFLY, noc.UniformRandom},
	}
	type job struct {
		topo, k int
	}
	var jobs []job
	for t := range topos {
		for k := 0; k <= maxFailed; k++ {
			jobs = append(jobs, job{t, k})
		}
	}
	points, err := par.Map(context.Background(), 0, len(jobs),
		func(_ context.Context, i int) (noc.LoadPoint, error) {
			tp := topos[jobs[i].topo]
			spec := noc.TopoSpec{Kind: tp.kind, Clusters: 4,
				LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1}
			syn := noc.DefaultSyntheticConfig()
			syn.Pattern = tp.pattern
			syn.FailLinks = jobs[i].k
			syn.FailSeed = 42
			return noc.RunSynthetic(spec, noc.DefaultConfig(), syn, degProbeLoad)
		})
	if err != nil {
		return nil, err
	}
	var out []DegRow
	for i, j := range jobs {
		out = append(out, DegRow{Topo: topos[j.topo].name, FailedLinks: j.k,
			Throughput: points[i].RTThroughput, AvgLatency: points[i].AvgLatency})
	}
	return out, nil
}

// DegradationString renders the degradation table.
func DegradationString(rows []DegRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degradation — saturation throughput vs failed link pairs (offered %.2f flits/term/cycle)\n", degProbeLoad)
	fmt.Fprintf(&b, "%-12s %8s %12s %14s\n", "topo", "failed", "throughput", "latency(cyc)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %12.3f %14.1f\n", r.Topo, r.FailedLinks, r.Throughput, r.AvgLatency)
	}
	return b.String()
}

// ------------------------------------------------- extension: placement

// PlacementRow compares page-placement policies for one workload.
type PlacementRow struct {
	Workload string
	Policy   string
	Kernel   sim.Time
	AvgHops  float64
}

// Placement is an extension experiment beyond the paper: it quantifies the
// open question of Section III-C by comparing the paper's random page
// placement against an owner-compute mapping aligned with SKE's static
// CTA chunks.
func Placement(scale float64, workloads []string, configure Configure) ([]PlacementRow, error) {
	if len(workloads) == 0 {
		workloads = []string{"BP", "SRAD", "VA", "BFS"}
	}
	type job struct {
		wl     string
		policy string
	}
	var jobs []job
	var cfgs []core.Config
	for _, wl := range workloads {
		for _, oc := range []bool{false, true} {
			cfg := core.DefaultConfig(core.GMN, wl)
			cfg.Scale = scale
			cfg.OwnerCompute = oc
			name := "random"
			if oc {
				name = "owner-compute"
			}
			jobs = append(jobs, job{wl, name})
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAll(cfgs, configure)
	if err != nil {
		return nil, err
	}
	var out []PlacementRow
	for i, j := range jobs {
		out = append(out, PlacementRow{Workload: j.wl, Policy: j.policy,
			Kernel: results[i].Kernel, AvgHops: results[i].AvgHops})
	}
	return out, nil
}

// PlacementString renders the table.
func PlacementString(rows []PlacementRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Extension — page placement: random (paper) vs owner-compute")
	fmt.Fprintf(&b, "%-8s %-14s %10s %8s\n", "wl", "policy", "kernel", "hops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-14s %10.1f %8.2f\n", r.Workload, r.Policy, us(r.Kernel), r.AvgHops)
	}
	return b.String()
}
