package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"memnet/internal/obs"
	"memnet/internal/sim"
)

// TestStopOnMatchesOff pins the passivity contract: a run with a stop
// signal attached but never tripped reports exactly the figures of a run
// without one — the poll observes between events and schedules nothing.
func TestStopOnMatchesOff(t *testing.T) {
	cfg := tiny(PCIe, "VA")
	cfg.Stop = &sim.Stop{}
	withStop := mustRun(t, cfg)
	plain := mustRun(t, tiny(PCIe, "VA"))
	on, off := fmt.Sprintf("%+v", withStop), fmt.Sprintf("%+v", plain)
	if on != off {
		t.Fatalf("results diverge with an untripped stop attached:\n%s\nvs\n%s", on, off)
	}
}

// TestStopAbortsRun trips the latch from a progress event (so the trip
// point is deterministic) and checks the run unwinds with ErrStopped and
// the trip reason in the message.
func TestStopAbortsRun(t *testing.T) {
	stop := &sim.Stop{}
	cfg := tiny(PCIe, "VA")
	cfg.Stop = stop
	cfg.Progress = func(ev obs.ProgressEvent) {
		if ev.Event == obs.ProgressPhaseEnd {
			stop.Trip("cancelled by test")
		}
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("stopped run returned no error")
	}
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("error %v is not ErrStopped", err)
	}
	if want := "cancelled by test"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the trip reason %q", err, want)
	}
}

// TestStopPreTripped checks a latch tripped before the run starts aborts
// the very first phase — nothing simulates after a cancel.
func TestStopPreTripped(t *testing.T) {
	stop := &sim.Stop{}
	stop.Trip("cancelled before start")
	cfg := tiny(PCIe, "VA")
	cfg.Stop = stop
	_, err := Run(cfg)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("pre-tripped run returned %v, want ErrStopped", err)
	}
}
