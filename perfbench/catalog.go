package main

import (
	"fmt"
	"math/rand"

	"memnet/internal/core"
	"memnet/internal/noc"
)

// Every workload draws its inputs from a fixed, finite catalogue, so a
// committed reference can cover every input any seed can produce. The seed
// only orders the catalogue and picks among equivalent variants; each
// round (sweeps) or block (serve) has the same composition whatever the
// seed, so the amount of work per op stays comparable across seeds.

// sweepWorkloads are the Table II workloads of Fig. 14 plus VA.
var sweepWorkloads = []string{"BP", "BFS", "SRAD", "KMN", "BH", "SP", "SCAN",
	"3DFD", "FWT", "CG.S", "FT.S", "RAY", "STO", "CP", "VA"}

// sweepScales are the small input scales of the sweep; each round gives
// every (workload, architecture) pair one of them, half each way.
var sweepScales = []float64{0.04, 0.05}

// sweepPlacements are the page-placement seeds (core.Config.Seed).
var sweepPlacements = []int64{1, 2, 3}

// designPoint is one full-system simulation of sweep-light.
type designPoint struct {
	Workload  string
	Arch      core.Arch
	Scale     float64
	Placement int64
}

func (p designPoint) key() string {
	return fmt.Sprintf("sweep/%s/%s/%g/p%d", p.Workload, p.Arch, p.Scale, p.Placement)
}

// config is the Fig. 14 configuration of the point: the paper's
// 4GPU-16HMC system with the audit layer off, as the CLIs run it.
func (p designPoint) config() core.Config {
	cfg := core.DefaultConfig(p.Arch, p.Workload)
	cfg.Scale = p.Scale
	cfg.Seed = p.Placement
	cfg.Audit = core.AuditOff
	return cfg
}

// sweepCatalogue lists every design point a seed can select.
func sweepCatalogue() []designPoint {
	var out []designPoint
	for _, wl := range sweepWorkloads {
		for _, a := range core.Architectures() {
			for _, sc := range sweepScales {
				for _, pl := range sweepPlacements {
					out = append(out, designPoint{wl, a, sc, pl})
				}
			}
		}
	}
	return out
}

// sweepRound returns round r of sweep-light for seed: every (workload,
// architecture) pair exactly once, in seeded order, with a seeded
// placement and a scale that alternates over the pairs and rounds.
func sweepRound(seed int64, r int) []designPoint {
	rng := roundRNG(seed, r)
	shift := int(seed & 1)
	var out []designPoint
	for wi, wl := range sweepWorkloads {
		for ai, a := range core.Architectures() {
			out = append(out, designPoint{
				Workload:  wl,
				Arch:      a,
				Scale:     sweepScales[(wi+ai+r+shift)%len(sweepScales)],
				Placement: sweepPlacements[rng.Intn(len(sweepPlacements))],
			})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sweepWarmup is the fixed point set-up runs once, whatever the seed.
var sweepWarmup = designPoint{"CP", core.GMN, 0.04, 1}

// Synthetic load points: the Section V topologies under three traffic
// patterns, at offered loads (flits/terminal/cycle) that run from light
// load to well past saturation.
var (
	nocTopos    = []noc.TopoKind{noc.TopoSFBFLY, noc.TopoDFBFLY, noc.TopoSMESH, noc.TopoSTORUS}
	nocPatterns = []noc.TrafficPattern{noc.UniformRandom, noc.Permutation, noc.HotSpot}
	nocLoads    = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	nocSeeds    = []int64{7, 8, 9}
)

// loadPoint is one noc.RunSynthetic call of noc-saturated.
type loadPoint struct {
	Topo    noc.TopoKind
	Pattern noc.TrafficPattern
	Load    float64
	Seed    int64
}

func (p loadPoint) key() string {
	return fmt.Sprintf("noc/%s/%s/%g/s%d", p.Topo, p.Pattern, p.Load, p.Seed)
}

// nocClusters is the endpoint cluster count of the synthetic topologies;
// each cluster has one terminal.
const nocClusters = 4

func (p loadPoint) spec() noc.TopoSpec {
	return noc.TopoSpec{Kind: p.Topo, Clusters: nocClusters, LocalPerCluster: 4,
		TermChannels: 8, CPUCluster: -1}
}

// synthetic is cmd/nocload's read-request setup with the point's pattern
// and traffic seed.
func (p loadPoint) synthetic() noc.SyntheticConfig {
	syn := noc.DefaultSyntheticConfig()
	syn.Pattern = p.Pattern
	syn.Seed = p.Seed
	return syn
}

func nocCatalogue() []loadPoint {
	var out []loadPoint
	for _, t := range nocTopos {
		for _, pat := range nocPatterns {
			for _, l := range nocLoads {
				for _, s := range nocSeeds {
					out = append(out, loadPoint{t, pat, l, s})
				}
			}
		}
	}
	return out
}

// nocRound returns round r of noc-saturated for seed: every (topology,
// pattern, load) once, in seeded order, with a seeded traffic seed.
func nocRound(seed int64, r int) []loadPoint {
	rng := roundRNG(seed, r)
	var out []loadPoint
	for _, t := range nocTopos {
		for _, pat := range nocPatterns {
			for _, l := range nocLoads {
				out = append(out, loadPoint{t, pat, l, nocSeeds[rng.Intn(len(nocSeeds))]})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// nocWarmup is the fixed point set-up runs once, whatever the seed.
var nocWarmup = loadPoint{noc.TopoSMESH, noc.Permutation, 0.1, 7}

// roundRNG derives an independent generator for one round of one seed.
func roundRNG(seed int64, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
}

// jobSpec is the memnetd wire form of a job (the fields serve-mixed uses).
type jobSpec struct {
	Experiment string   `json:"experiment"`
	Scale      float64  `json:"scale,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	Client     string   `json:"client,omitempty"`
}

func (s jobSpec) key() string {
	k := "serve/" + s.Experiment
	for _, w := range s.Workloads {
		k += "/" + w
	}
	if s.Scale != 0 {
		k += fmt.Sprintf("/%g", s.Scale)
	}
	return k
}

// Served jobs. The cold catalogue holds small single-workload fig14,
// fig16 and ctasched jobs whose content addresses differ only by scale.
// Every cold scale lies below the scale at which each cold workload leaves
// its minimum input size (VA at 1/64, FWT at 1/32, CP at 1/16), so every
// cold job of a pair simulates the same input and costs the same. The warm
// set is computed into the cache directory before timing starts.
var (
	coldExperiments = []string{"fig14", "fig16", "ctasched"}
	coldWorkloads   = []string{"VA", "CP", "FWT"}
	coldScaleCount  = 40 // scales 0.0100, 0.0101, ... 0.0139
)

func coldScale(i int) float64 { return float64(100+i) / 10000 }

func coldCatalogue() []jobSpec {
	var out []jobSpec
	for _, e := range coldExperiments {
		for _, w := range coldWorkloads {
			for i := 0; i < coldScaleCount; i++ {
				out = append(out, jobSpec{Experiment: e, Scale: coldScale(i), Workloads: []string{w}})
			}
		}
	}
	return out
}

func warmCatalogue() []jobSpec {
	out := []jobSpec{{Experiment: "fig12"}, {Experiment: "table2"}}
	for _, e := range coldExperiments {
		for _, w := range []string{"VA", "CP", "FWT", "BFS"} {
			out = append(out, jobSpec{Experiment: e, Scale: 0.05, Workloads: []string{w}})
		}
	}
	return out
}

// serveBlock is the number of requests that carry exactly one cold job.
const serveBlock = 10

// serveOp is one request of the serve-mixed stream.
type serveOp struct {
	Cold bool
	Spec jobSpec
}

// serveStream returns the seeded request stream: blocks of serveBlock
// requests with one cold job each at a seeded position (10% cold), the
// rest drawn uniformly from the warm set. Cold jobs cycle over every
// (experiment, workload) pair, each pair taking its scales in seeded
// order; as every scale of a pair simulates the same input, every seed's
// stream costs the same. Cold jobs never repeat, and the
// stream ends when the cold catalogue is used up.
func serveStream(seed int64) []serveOp {
	rng := rand.New(rand.NewSource(seed))
	pairs := len(coldExperiments) * len(coldWorkloads)
	scales := make([][]int, pairs)
	for i := range scales {
		scales[i] = rng.Perm(coldScaleCount)
	}
	warm := warmCatalogue()
	first := rng.Intn(pairs)
	var out []serveOp
	for b := 0; b < pairs*coldScaleCount; b++ {
		pair := (first + b) % pairs
		cold := jobSpec{
			Experiment: coldExperiments[pair/len(coldWorkloads)],
			Workloads:  []string{coldWorkloads[pair%len(coldWorkloads)]},
			Scale:      coldScale(scales[pair][b/pairs]),
		}
		at := rng.Intn(serveBlock)
		for i := 0; i < serveBlock; i++ {
			if i == at {
				out = append(out, serveOp{Cold: true, Spec: cold})
			} else {
				out = append(out, serveOp{Spec: warm[rng.Intn(len(warm))]})
			}
		}
	}
	return out
}
