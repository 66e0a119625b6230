// Package bench defines the canonical performance benchmarks tracked
// across PRs in the BENCH_*.json trajectory. The same benchmark bodies are
// run two ways: wrapped as ordinary Go benchmarks by bench_test.go files,
// and executed standalone by cmd/bench (via testing.Benchmark) to emit the
// committed JSON snapshots.
//
// The set deliberately spans the stack's altitudes: raw event-engine
// throughput (EngineEvents, TypedEvents), the NoC flit hot loop in
// isolation (FlitHop) and under saturation (SaturatedNoC), whole
// experiment sweeps (Fig07/Fig12/Fig16, SweepSequential/SweepParallel),
// and the serving stack's request path (ServeWarmCache) so a regression
// anywhere in the pipeline moves at least one curve.
package bench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"memnet/internal/exp"
	"memnet/internal/noc"
	"memnet/internal/par"
	"memnet/internal/serve"
	"memnet/internal/sim"
	"memnet/internal/telemetry"
)

// Fn is one named benchmark.
type Fn struct {
	Name string
	F    func(*testing.B)
}

// Short returns the quick benchmark set the CI bench job runs: the
// micro-benchmarks plus the cheapest figure sweep.
func Short() []Fn {
	return []Fn{
		{"EngineEvents", EngineEvents},
		{"TypedEvents", TypedEvents},
		{"FlitHop", FlitHop},
		{"SaturatedNoC", SaturatedNoC},
		{"Fig12", Fig12},
	}
}

// Full returns the canonical benchmark set emitted into BENCH_*.json.
func Full() []Fn {
	return append(Short(),
		Fn{"Fig07", Fig07},
		Fn{"Fig16", Fig16},
		Fn{"SweepSequential", SweepSequential},
		Fn{"SweepParallel", SweepParallel},
		Fn{"ServeWarmCache", ServeWarmCache},
	)
}

// lcg is a tiny deterministic pseudorandom stream for benchmark schedules.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

func (r *lcg) float64() float64 {
	return float64(r.next()>>11) / (1 << 20)
}

// benchSpread mimics the simulator's scheduling profile: most events land
// within a few hundred cycles of now, with an occasional long timer.
func benchSpread(r *lcg) sim.Time {
	d := sim.Time(r.next()%4000) + 1
	if r.next()%64 == 0 {
		d += 1_000_000
	}
	return d
}

// EngineEvents measures the engine's closure-scheduling hot path — After +
// Step at a steady queue depth of 1024 — in ns/event.
func EngineEvents(b *testing.B) {
	e := sim.NewEngine()
	r := lcg(1)
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.After(benchSpread(&r), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(benchSpread(&r), nop)
		e.Step()
	}
}

// TypedEvents measures the closure-free fast path — AfterEvent + Step at
// the same steady depth — the variant the per-cycle callers use.
func TypedEvents(b *testing.B) {
	e := sim.NewEngine()
	r := lcg(1)
	nop := func(any) {}
	for i := 0; i < 1024; i++ {
		e.AfterEvent(benchSpread(&r), nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterEvent(benchSpread(&r), nop, nil)
		e.Step()
	}
}

// flitHopBatch is the number of packets pushed per FlitHop iteration so the
// two-router chain stays busy instead of measuring wake/sleep latency.
const flitHopBatch = 256

// FlitHop measures the per-flit cost of the router/channel pipeline on a
// minimal two-router chain: one op is a batch of 4-flit request packets
// injected back to back and drained to quiescence. It reports flits/sec
// through the chain.
func FlitHop(b *testing.B) {
	eng := sim.NewEngine()
	n := noc.New(eng, noc.DefaultConfig())
	r0 := n.AddRouter()
	r1 := n.AddRouter()
	n.Connect(r0, r1, noc.ChannelOpts{})
	t := n.AddTerminal("t0")
	n.Attach(t, r0, 1)
	n.RouterSink = func(r int, pkt *noc.Packet) { n.Release(pkt) }
	if err := n.Finalize(); err != nil {
		b.Fatal(err)
	}
	const size = 4
	busy := func() bool { return !n.Quiescent() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < flitHopBatch; k++ {
			n.Send(n.NewRequest(t, r1, size))
		}
		eng.RunWhile(busy)
	}
	b.StopTimer()
	flits := float64(n.FlitsRetired())
	b.ReportMetric(flits/b.Elapsed().Seconds(), "flits/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/flits, "ns/flit")
}

// saturatedSpec is the paper's 4GPU+CPU sliced flattened butterfly.
func saturatedSpec() noc.TopoSpec {
	return noc.TopoSpec{
		Kind:            noc.TopoSFBFLY,
		Clusters:        5,
		LocalPerCluster: 4,
		TermChannels:    8,
		CPUCluster:      -1,
	}
}

// SaturatedNoC runs open-loop request/response traffic on the sFBFLY
// topology well past saturation (0.7 flits/terminal/cycle offered) for
// 2000 network cycles plus drain — the steady-state regime the whole
// simulation spends its time in. One op is a full run; it reports
// flits/sec retired, the headline trajectory metric.
func SaturatedNoC(b *testing.B) {
	var flits int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := runSaturated(b, 0.7, 2000)
		flits += n.FlitsRetired()
	}
	b.StopTimer()
	b.ReportMetric(float64(flits)/b.Elapsed().Seconds(), "flits/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flits), "ns/flit")
}

// runSaturated builds a fresh sFBFLY network and pumps Bernoulli request
// traffic at `rate` flits/terminal/cycle for `cycles` cycles, each request
// answered by a 9-flit response, then drains. It returns the network so
// callers can read the flit ledger.
func runSaturated(b *testing.B, rate float64, cycles int64) *noc.Network {
	eng := sim.NewEngine()
	bt, err := noc.BuildTopology(eng, noc.DefaultConfig(), saturatedSpec())
	if err != nil {
		b.Fatal(err)
	}
	n := bt.Net
	n.RouterSink = func(r int, pkt *noc.Packet) {
		src := pkt.SrcTerm
		n.Release(pkt)
		n.Send(n.NewResponse(r, src, 9))
	}
	for i := 0; i < n.NumTerminals(); i++ {
		n.Terminal(i).OnDeliver = func(resp *noc.Packet) { n.Release(resp) }
	}
	period := n.Clock().Period()
	rng := lcg(12345)
	routers := n.NumRouters()
	inj := &saturatedInjector{
		n: n, eng: eng, bt: bt, rng: &rng,
		period: period, p: rate, routers: routers,
		stop: sim.Time(cycles) * period,
	}
	for ti := 0; ti < n.NumTerminals(); ti++ {
		eng.AtEvent(sim.Time(ti%7), injectorStep, &terminalInjector{inj: inj, term: ti})
	}
	eng.RunUntil(sim.Time(cycles+100_000) * period)
	return n
}

// saturatedInjector holds the shared state of the per-terminal Bernoulli
// injection processes.
type saturatedInjector struct {
	n       *noc.Network
	eng     *sim.Engine
	bt      *noc.Built
	rng     *lcg
	period  sim.Time
	p       float64
	routers int
	stop    sim.Time
}

// terminalInjector is one terminal's injection process; it reschedules
// itself through the typed-event fast path so injection adds no
// allocations to the measured loop.
type terminalInjector struct {
	inj  *saturatedInjector
	term int
}

func injectorStep(a any) {
	ti := a.(*terminalInjector)
	s := ti.inj
	if s.eng.Now() >= s.stop {
		return
	}
	if s.rng.float64() < s.p {
		dst := int(s.rng.next() % uint64(s.routers))
		s.n.Send(s.n.NewRequest(s.bt.Terms[ti.term], dst, 1))
	}
	s.eng.AfterEvent(s.period, injectorStep, ti)
}

// benchScale keeps the figure sweeps affordable inside one bench run.
const benchScale = 0.1

// Fig07 runs the remote-memory-access experiment (vectorAdd with data
// spread over 1/2/4 GPU memories, PCIe vs GMN) end to end.
func Fig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(benchScale*2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig12 computes the channel-count comparison (topology construction and
// route finalization only — no traffic), a build-path benchmark.
func Fig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

// fig16Workloads is the subset benchmarked for the topology comparison.
var fig16Workloads = []string{"BP", "KMN"}

// Fig16 runs the sliced-topology comparison for two workloads.
func Fig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig16(benchScale, fig16Workloads, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// SweepSequential runs the Fig. 15 routing study with the worker pool
// pinned to one worker — full-sweep wall time, the trajectory's
// end-to-end metric.
func SweepSequential(b *testing.B) {
	benchSweep(b, 1)
}

// SweepParallel is the same study fanned out across the CPUs.
func SweepParallel(b *testing.B) {
	benchSweep(b, runtime.NumCPU())
}

func benchSweep(b *testing.B, width int) {
	prev := par.SetParallelism(width)
	defer par.SetParallelism(prev)
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig15(benchScale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// serveWarmSpec is the job ServeWarmCache replays; table2 is parameterless
// and cheap, so the first request warms the cache almost instantly and
// every subsequent one measures pure serving overhead.
const serveWarmSpec = `{"experiment":"table2"}`

// ServeWarmCache measures the serving stack's request path end to end —
// HTTP decode, spec canonicalization, SHA-256 content addressing, cache
// lookup, response write — with the result already cached, in jobs/sec.
// This is the dedupe fast path every repeated submission takes, with the
// full telemetry registry attached (the instrumented, not the disabled,
// cost).
func ServeWarmCache(b *testing.B) {
	srv, err := serve.New(serve.Config{Metrics: telemetry.NewRegistry(), Logger: telemetry.DiscardLogger()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	run := func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(serveWarmSpec))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/run: %s", resp.Status)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	run() // warm the cache: one real simulation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
