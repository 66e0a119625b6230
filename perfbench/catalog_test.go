package main

import (
	"fmt"
	"reflect"
	"testing"

	"memnet/internal/core"
	"memnet/internal/workload"
)

func TestOpListsRepeatPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 12345} {
		if !reflect.DeepEqual(sweepRound(seed, 3), sweepRound(seed, 3)) {
			t.Errorf("seed %d: sweep round differs between calls", seed)
		}
		if !reflect.DeepEqual(nocRound(seed, 1), nocRound(seed, 1)) {
			t.Errorf("seed %d: noc round differs between calls", seed)
		}
		if !reflect.DeepEqual(serveStream(seed), serveStream(seed)) {
			t.Errorf("seed %d: serve stream differs between calls", seed)
		}
	}
}

func TestOpListsDifferAcrossSeeds(t *testing.T) {
	if reflect.DeepEqual(sweepRound(1, 0), sweepRound(2, 0)) {
		t.Error("seeds 1 and 2 give the same sweep round")
	}
	if reflect.DeepEqual(nocRound(1, 0), nocRound(2, 0)) {
		t.Error("seeds 1 and 2 give the same noc round")
	}
	if reflect.DeepEqual(serveStream(1), serveStream(2)) {
		t.Error("seeds 1 and 2 give the same serve stream")
	}
	if reflect.DeepEqual(sweepRound(1, 0), sweepRound(1, 1)) {
		t.Error("rounds 0 and 1 of one seed are identical")
	}
}

// Whatever the seed, a round holds every (workload, architecture) or
// (topology, pattern, load) once, and a serve block one cold job.
func TestCompositionIsSeedIndependent(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		for r := 0; r < 3; r++ {
			pairs := map[string]int{}
			scales := map[float64]int{}
			for _, p := range sweepRound(seed, r) {
				pairs[p.Workload+"/"+p.Arch.String()]++
				scales[p.Scale]++
			}
			if len(pairs) != len(sweepWorkloads)*7 {
				t.Errorf("seed %d round %d: %d distinct (workload, arch) pairs", seed, r, len(pairs))
			}
			if d := scales[0.04] - scales[0.05]; d < -1 || d > 1 {
				t.Errorf("seed %d round %d: scales unbalanced %v", seed, r, scales)
			}
			combos := map[string]bool{}
			for _, p := range nocRound(seed, r) {
				combos[fmt.Sprintf("%s/%s/%g", p.Topo, p.Pattern, p.Load)] = true
			}
			if len(combos) != len(nocTopos)*len(nocPatterns)*len(nocLoads) {
				t.Errorf("seed %d round %d: %d distinct noc combos", seed, r, len(combos))
			}
		}
		stream := serveStream(seed)
		seen := map[string]bool{}
		for b := 0; b < len(stream); b += serveBlock {
			n := 0
			for _, op := range stream[b : b+serveBlock] {
				if op.Cold {
					n++
					if seen[op.Spec.key()] {
						t.Fatalf("seed %d: cold job %s repeats", seed, op.Spec.key())
					}
					seen[op.Spec.key()] = true
				}
			}
			if n != 1 {
				t.Fatalf("seed %d: block at %d has %d cold jobs", seed, b, n)
			}
		}
		if len(seen) != len(coldCatalogue()) {
			t.Errorf("seed %d: stream uses %d of %d cold jobs", seed, len(seen), len(coldCatalogue()))
		}
	}
}

// Every cold scale is below each cold workload's minimum input size, so
// the cold jobs of one (experiment, workload) pair simulate the same input
// and the seeded order of their scales does not change a run's work.
func TestColdScalesSimulateOneInput(t *testing.T) {
	for _, name := range coldWorkloads {
		first, err := workload.New(name, coldScale(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < coldScaleCount; i++ {
			w, err := workload.New(name, coldScale(i))
			if err != nil {
				t.Fatal(err)
			}
			if w.NumCTAs() != first.NumCTAs() || !reflect.DeepEqual(w.Buffers(), first.Buffers()) {
				t.Errorf("%s at scale %g: %d CTAs, buffers %v; at %g: %d CTAs, buffers %v", name,
					coldScale(i), w.NumCTAs(), w.Buffers(), coldScale(0), first.NumCTAs(), first.Buffers())
			}
		}
	}
}

// Every op any seed can generate has an entry in the committed reference.
func TestEveryOpHasReference(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, j := range catalogueJobs() {
		keys[j.key] = true
		if _, ok := ref.Entries[j.key]; !ok {
			t.Errorf("catalogue entry %s has no reference", j.key)
		}
	}
	if len(ref.Entries) != len(keys) {
		t.Errorf("reference has %d entries for %d catalogue entries", len(ref.Entries), len(keys))
	}
	cmn := 0
	for _, p := range sweepCatalogue() {
		if p.Arch == core.CMN {
			cmn++
			if _, ok := ref.CMN[p.key()]; !ok {
				t.Errorf("CMN design point %s has no reference CMN times", p.key())
			}
		}
	}
	if len(ref.CMN) != cmn {
		t.Errorf("reference has CMN times for %d points, the catalogue %d CMN points", len(ref.CMN), cmn)
	}
	for seed := int64(0); seed < 50; seed++ {
		for r := 0; r < 4; r++ {
			for _, p := range sweepRound(seed, r) {
				if !keys[p.key()] {
					t.Fatalf("seed %d: %s is outside the catalogue", seed, p.key())
				}
			}
			for _, p := range nocRound(seed, r) {
				if !keys[p.key()] {
					t.Fatalf("seed %d: %s is outside the catalogue", seed, p.key())
				}
			}
		}
		for _, op := range serveStream(seed) {
			if !keys[op.Spec.key()] {
				t.Fatalf("seed %d: %s is outside the catalogue", seed, op.Spec.key())
			}
		}
	}
	for _, k := range []string{sweepWarmup.key(), nocWarmup.key()} {
		if !keys[k] {
			t.Errorf("warm-up %s is outside the catalogue", k)
		}
	}
}
