package core_test

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/sim"
)

// These tests drive runs whose configs an experiment builds internally
// and check that the per-run settings an exp.Configure hook attaches are
// honoured by core, while a nil hook attaches nothing. Placement on VA is
// the cheapest registry sweep: two GMN runs.

func placementVA(t *testing.T, configure exp.Configure) error {
	t.Helper()
	_, err := exp.Placement(0.05, []string{"VA"}, configure)
	return err
}

// TestProgressDefault: a sink attached by the hook observes the
// experiment's runs; without the hook no sink observes anything more.
func TestProgressDefault(t *testing.T) {
	var mu sync.Mutex
	count := 0
	sink := func(obs.ProgressEvent) {
		mu.Lock()
		count++
		mu.Unlock()
	}
	if err := placementVA(t, func(cfg *core.Config, _ string) { cfg.Progress = sink }); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("hooked progress sink saw no events")
	}
	seen := count
	if err := placementVA(t, nil); err != nil {
		t.Fatal(err)
	}
	if count != seen {
		t.Fatalf("sink saw events from an unhooked sweep (%d -> %d)", seen, count)
	}
}

// TestStopDefault: a tripped latch attached by the hook stops every run;
// without the hook the same sweep completes.
func TestStopDefault(t *testing.T) {
	stop := &sim.Stop{}
	stop.Trip("hooked latch")
	err := placementVA(t, func(cfg *core.Config, _ string) { cfg.Stop = stop })
	if !errors.Is(err, core.ErrStopped) {
		t.Fatalf("sweep under a tripped latch returned %v, want core.ErrStopped", err)
	}
	if err := placementVA(t, nil); err != nil {
		t.Fatalf("unhooked sweep failed: %v", err)
	}
}

// TestObsDefaultDirectories: a hook naming trace and metrics files after
// the run id gets exactly one of each per run.
func TestObsDefaultDirectories(t *testing.T) {
	dir := t.TempDir()
	err := placementVA(t, func(cfg *core.Config, run string) {
		cfg.TraceOut = filepath.Join(dir, run+".trace.json")
		cfg.MetricsOut = filepath.Join(dir, run+".metrics.csv")
		cfg.MetricsEpoch = 2 * sim.Microsecond
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"000-VA-GMN", "001-VA-GMN"} {
		traces, _ := filepath.Glob(filepath.Join(dir, run+".trace.json"))
		metrics, _ := filepath.Glob(filepath.Join(dir, run+".metrics.csv"))
		if len(traces) != 1 || len(metrics) != 1 {
			t.Fatalf("run %s produced %d traces / %d metrics files, want 1/1", run, len(traces), len(metrics))
		}
	}
}

// TestProfDefaultDirectory: a hook naming profile files after the run id
// gets one loadable profile per run.
func TestProfDefaultDirectory(t *testing.T) {
	dir := t.TempDir()
	err := placementVA(t, func(cfg *core.Config, run string) {
		cfg.ProfileOut = filepath.Join(dir, run+".profile.json")
	})
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*-VA-GMN.profile.json"))
	if len(files) != 2 {
		t.Fatalf("hook produced %d profiles, want 2 (one per run)", len(files))
	}
	for _, f := range files {
		if _, err := prof.LoadFile(f); err != nil {
			t.Fatal(err)
		}
	}
}
