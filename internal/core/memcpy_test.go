package core

import (
	"reflect"
	"testing"
)

// TestCMNMemcpyDeterministic pins the CMN bulk-DMA phase to one summation
// order. Its duration adds per-cluster transfer times as float64, so any
// order but a fixed one moves H2D/D2H by 1 ps between identical runs.
// SRAD at this size spreads its pages over enough clusters that two
// random orders almost never round alike.
func TestCMNMemcpyDeterministic(t *testing.T) {
	cfg := tiny(CMN, "SRAD")
	cfg.Scale = 0.02
	first := mustRun(t, cfg)
	for i := 1; i < 16; i++ {
		if res := mustRun(t, cfg); !reflect.DeepEqual(first, res) {
			t.Fatalf("run %d differs from run 0: H2D %d vs %d, Kernel %d vs %d, D2H %d vs %d",
				i, res.H2D, first.H2D, res.Kernel, first.Kernel, res.D2H, first.D2H)
		}
	}
}
