package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"memnet/internal/core"
	"memnet/internal/noc"
	"memnet/internal/par"
)

// pointOutcome is what one simulated point reports.
type pointOutcome struct {
	err   error
	lat   time.Duration // whole op: NewSystem + Execute, or RunSynthetic
	build time.Duration // NewSystem (sweep-light)
	simPS int64         // simulated time, ps

	// dmaOrder marks a CMN point accepted as a DMA summation-order variant
	// of its reference (see reference.checkResult).
	dmaOrder bool

	// Deterministic work counters.
	flits, cycles, busy, chanCycles int64
	l1, l2, row                     float64
	stolen                          int64
}

// pointOp runs one point with the given tracer and op id.
type pointOp func(tr *tracer, op int) pointOutcome

// designOp runs one full-system design point through core.NewSystem and
// System.Execute and checks the full Result against the reference.
func designOp(p designPoint, ref *reference) pointOp {
	return func(tr *tracer, op int) pointOutcome {
		var o pointOutcome
		root, end := tr.begin("op", op, 0)
		defer end()
		t0 := time.Now()
		_, endBuild := tr.begin("core.NewSystem", op, root)
		sys, err := core.NewSystem(p.config())
		endBuild()
		o.build = time.Since(t0)
		if err != nil {
			o.err = fmt.Errorf("%s: %w", p.key(), err)
			return o
		}
		_, endExec := tr.begin("core.Execute", op, root)
		res, err := sys.Execute()
		endExec()
		o.lat = time.Since(t0)
		if err != nil {
			o.err = fmt.Errorf("%s: %w", p.key(), err)
			return o
		}
		off, err := ref.checkResult(p.key(), res)
		o.err = err
		o.dmaOrder = off != (cmnTimes{})
		// Simulated time in the reference's summation order, so that the
		// counter depends on the seed alone.
		o.simPS = int64(sys.Engine().Now()) - off.end()
		net := sys.Network()
		o.flits = net.Stats.FlitsDelivered.Value()
		o.cycles = net.Cycle()
		o.busy, o.chanCycles = net.AllChannelBusy()
		o.l1, o.l2, o.row, o.stolen = res.L1HitRate, res.L2HitRate, res.RowHitRate, res.CTAsStolen
		return o
	}
}

// synthOp runs one synthetic load point through noc.RunSynthetic and
// checks the LoadPoint against the reference.
func synthOp(p loadPoint, ref *reference) pointOp {
	return func(tr *tracer, op int) pointOutcome {
		var o pointOutcome
		root, end := tr.begin("op", op, 0)
		defer end()
		syn := p.synthetic()
		t0 := time.Now()
		_, endRun := tr.begin("noc.RunSynthetic", op, root)
		lp, err := noc.RunSynthetic(p.spec(), noc.DefaultConfig(), syn, p.Load)
		endRun()
		o.lat = time.Since(t0)
		if err != nil {
			o.err = fmt.Errorf("%s: %w", p.key(), err)
			return o
		}
		o.err = ref.check(p.key(), loadPointDigest(lp))
		// RunSynthetic reports per-terminal rates over the measured window;
		// its flits are the accepted requests plus the delivered responses.
		window := syn.WarmupCyc + syn.MeasureCyc
		o.cycles = window
		o.simPS = window * int64(1e6/noc.DefaultConfig().ClockMHz)
		o.flits = int64(math.Round((lp.Throughput + lp.RTThroughput) * float64(syn.MeasureCyc) * nocClusters))
		return o
	}
}

// phase is one measured stretch of a sweep: whole rounds of points.
type phase struct {
	rounds  [][]pointOutcome
	wall    time.Duration // first point started → last point done
	busy    time.Duration // par.Stats busy time over the phase
	alloc   uint64        // bytes allocated over the phase
	cpuProf []byte
	width   int
	cpu     time.Duration // process CPU time over the phase
	steal   time.Duration // host steal time over the phase, all CPUs
}

func (ph *phase) points() int {
	n := 0
	for _, r := range ph.rounds {
		n += len(r)
	}
	return n
}

// maxRounds bounds a phase; hardCap ends it sooner.
const maxRounds = 64

// runPhase runs whole rounds of points through one par.Map, so a round's
// last points overlap the next round's first and the workers idle only at
// the very end. When a round is about to start it is decided, once, whether
// the phase goes on: it stops once at least seconds of wall time and
// minPoints points have passed (or hardCap), so every phase is made
// of whole rounds and has the same composition whatever the seed.
func runPhase(round func(r int) []pointOp, width int, seconds float64, minPoints int, tr *tracer, profile bool) (*phase, error) {
	ph := &phase{width: width}
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	busy0 := par.Stats().BusyTime
	cpu0, steal0 := hostTimes()

	var ops []pointOp
	for r := 0; r < maxRounds; r++ {
		ops = append(ops, round(r)...)
	}
	perRound := len(ops) / maxRounds
	var mu sync.Mutex
	decided, stopAt := 0, len(ops) // rounds decided so far; first skipped op
	t0 := time.Now()
	var last time.Duration // when the latest point finished, after t0
	run := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		for r := i / perRound; decided <= r; decided++ {
			el := time.Since(t0)
			if decided > 0 && stopAt == len(ops) &&
				((el.Seconds() >= seconds && decided*perRound >= minPoints) || el > hardCap) {
				stopAt = decided * perRound
			}
		}
		return i < stopAt
	}
	outs, err := par.Map(context.Background(), width, len(ops),
		func(_ context.Context, i int) (pointOutcome, error) {
			if !run(i) {
				return pointOutcome{}, nil
			}
			o := ops[i](tr, i)
			mu.Lock()
			last = max(last, time.Since(t0))
			mu.Unlock()
			return o, nil
		})
	if err != nil {
		return nil, err
	}
	ph.wall = last
	ph.busy = par.Stats().BusyTime - busy0
	cpu1, steal1 := hostTimes()
	ph.cpu, ph.steal = cpu1-cpu0, steal1-steal0
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	if profile {
		pprof.StopCPUProfile()
		ph.cpuProf = prof.Bytes()
	}
	for r := 0; r*perRound < stopAt; r++ {
		ph.rounds = append(ph.rounds, outs[r*perRound:(r+1)*perRound])
	}
	return ph, nil
}

// latencies returns every point's whole latency, its build part
// (NewSystem) and the rest, its simulation (Execute or RunSynthetic);
// failed points count as +Inf in the whole and the simulation latency.
func (ph *phase) latencies(t *tally) (lat, build, exec samples) {
	for _, r := range ph.rounds {
		for _, o := range r {
			if o.err != nil {
				t.fail(o.err)
				lat.addFailed()
				exec.addFailed()
				continue
			}
			t.ok()
			lat.add(o.lat)
			build.add(o.build)
			exec.add(o.lat - o.build)
		}
	}
	return
}

// dmaOrderVariants counts the points accepted as DMA summation-order
// variants of their reference.
func (ph *phase) dmaOrderVariants() int {
	n := 0
	for _, r := range ph.rounds {
		for _, o := range r {
			if o.dmaOrder {
				n++
			}
		}
	}
	return n
}

// counters sums round 0's deterministic counters in op order, so they
// depend on the seed alone.
type counters struct {
	points                          int
	flits, cycles, busy, chanCycles int64
	simPS, stolen                   int64
	l1, l2, row                     float64
}

func (ph *phase) counters() counters {
	var c counters
	for _, o := range ph.rounds[0] {
		c.points++
		c.flits += o.flits
		c.cycles += o.cycles
		c.busy += o.busy
		c.chanCycles += o.chanCycles
		c.simPS += o.simPS
		c.stolen += o.stolen
		c.l1 += o.l1
		c.l2 += o.l2
		c.row += o.row
	}
	return c
}
