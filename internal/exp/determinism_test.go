package exp

import (
	"testing"

	"memnet/internal/core"
	"memnet/internal/par"
)

// TestFig14DeterministicAcrossParallelism guards the contract the worker
// pool relies on: core.Run is self-contained (per-instance rand.Rand, no
// package-level mutable state), so a figure's rendered output must be
// byte-identical whether its run matrix executes sequentially or fanned
// out across 8 workers.
func TestFig14DeterministicAcrossParallelism(t *testing.T) {
	workloads := []string{"BP", "BFS", "VA"}
	run := func(p int) string {
		prev := par.SetParallelism(p)
		defer par.SetParallelism(prev)
		r, err := Fig14(0.05, workloads, nil)
		if err != nil {
			t.Fatalf("par=%d: %v", p, err)
		}
		return r.String()
	}
	seq := run(1)
	parl := run(8)
	if seq != parl {
		t.Fatalf("Fig14 output differs between par=1 and par=8:\n--- par=1 ---\n%s\n--- par=8 ---\n%s", seq, parl)
	}
}

// TestFig19DeterministicAcrossParallelism covers the one figure whose
// post-processing depends on cross-job results (per-workload baselines).
func TestFig19DeterministicAcrossParallelism(t *testing.T) {
	run := func(p int) string {
		prev := par.SetParallelism(p)
		defer par.SetParallelism(prev)
		rows, gm, err := Fig19(0.1, []int{1, 2}, nil)
		if err != nil {
			t.Fatalf("par=%d: %v", p, err)
		}
		return Fig19String(rows, gm)
	}
	if seq, parl := run(1), run(8); seq != parl {
		t.Fatalf("Fig19 output differs between par=1 and par=8:\n--- par=1 ---\n%s\n--- par=8 ---\n%s", seq, parl)
	}
}

// TestFig7DeterministicAcrossPooling pins the packet-pool recycling
// contract: Release runs in both modes and Send assigns IDs from the same
// counter, so reusing packet memory must not perturb a single simulated
// cycle. A figure sweep is byte-identical with pooling on and off.
func TestFig7DeterministicAcrossPooling(t *testing.T) {
	run := func(pool bool) string {
		r, err := Fig7(0.05, func(cfg *core.Config, _ string) { cfg.Net.NoPacketPool = !pool })
		if err != nil {
			t.Fatalf("pool=%v: %v", pool, err)
		}
		return r.String()
	}
	pooled, bare := run(true), run(false)
	if pooled != bare {
		t.Fatalf("Fig7 output differs between pooled and unpooled packets:\n--- pooled ---\n%s\n--- unpooled ---\n%s", pooled, bare)
	}
}
