package exp

import (
	"errors"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
)

// TestSweepCancellation checks that a stop latch a Configure hook attaches
// tears down a whole experiment fan-out: every run polls the latch between
// engine events, the pool surfaces the lowest-indexed run's error, and the
// %w wrapping keeps core.ErrStopped visible through errors.Is at the
// registry boundary.
func TestSweepCancellation(t *testing.T) {
	stop := &sim.Stop{}
	stop.Trip("cancelled by test")
	for _, name := range []string{"fig7", "fig14"} {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("experiment %q missing from the registry", name)
		}
		p := DefaultParams()
		p.Scale = 0.05
		p.Workloads = []string{"BP"}
		p.Configure = func(cfg *core.Config, _ string) { cfg.Stop = stop }
		if _, err := e.Run(p); !errors.Is(err, core.ErrStopped) {
			t.Fatalf("%s under a tripped latch returned %v, want core.ErrStopped", name, err)
		}
	}

	// Without the hook the latch reaches nothing.
	e, _ := Find("table2")
	if _, err := e.Run(Params{}); err != nil {
		t.Fatalf("table2 without the latch failed: %v", err)
	}
}
