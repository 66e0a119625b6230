package core

import (
	"path/filepath"
	"testing"

	"memnet/internal/prof"
)

// TestProfOnMatchesOff mirrors the obs byte-identity test: a profiled run
// must report exactly the figures of a plain run — the profiler observes
// packets and cycles but never schedules an event.
func TestProfOnMatchesOff(t *testing.T) {
	for _, arch := range []Arch{PCIe, UMN} {
		cfgOn := tiny(arch, "BP")
		cfgOn.Profile = true
		sysOn, err := NewSystem(cfgOn)
		if err != nil {
			t.Fatal(err)
		}
		resOn, err := sysOn.Execute()
		if err != nil {
			t.Fatalf("%v: profiled run failed: %v", arch, err)
		}
		p := sysOn.Profile()
		if p == nil || p.Net == nil {
			t.Fatalf("%v: profiled run produced no profile", arch)
		}

		cfgOff := tiny(arch, "BP")
		sysOff, err := NewSystem(cfgOff)
		if err != nil {
			t.Fatal(err)
		}
		if sysOff.Profile() != nil {
			t.Fatalf("%v: profile built without being requested", arch)
		}
		resOff, err := sysOff.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if resOn.Total != resOff.Total || resOn.Kernel != resOff.Kernel ||
			resOn.H2D != resOff.H2D || resOn.Host != resOff.Host ||
			resOn.D2H != resOff.D2H {
			t.Fatalf("%v: profiled results diverge: %+v vs %+v", arch, resOn, resOff)
		}
	}
}

// TestProfileContents runs a profiled UMN+overlay system (the overlay
// routes host accesses express through GPU routers, exercising the
// pass-through stage; CG.S has host compute phases) and checks the
// assembled profile end to end: exact stage decomposition per class,
// populated heat maps and channels, per-kernel compute records and HMC
// sections.
func TestProfileContents(t *testing.T) {
	cfg := tiny(UMN, "CG.S")
	cfg.Overlay = true
	cfg.Profile = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(); err != nil {
		t.Fatal(err)
	}
	p := sys.Profile()
	if p == nil || p.Net == nil {
		t.Fatal("no profile assembled")
	}
	if len(p.Net.Classes) == 0 {
		t.Fatal("profile has no packet classes")
	}
	var count int64
	for _, c := range p.Net.Classes {
		count += c.Count
		var sum int64
		for _, v := range c.Stages {
			sum += v
		}
		if sum != c.TotalPS {
			t.Fatalf("class %s: stage sum %d ps != end-to-end %d ps", c.Class, sum, c.TotalPS)
		}
	}
	if count == 0 {
		t.Fatal("profile retired no packets")
	}
	if got := sys.Network().Stats.PacketsDelivered.Value(); got != count {
		t.Fatalf("profile counted %d packets, network delivered %d", count, got)
	}
	if len(p.Net.Routers) == 0 || len(p.Net.Channels) == 0 {
		t.Fatalf("profile heat is empty: %d routers, %d channels", len(p.Net.Routers), len(p.Net.Channels))
	}
	// The overlay routes host traffic express through GPU routers, so the
	// pass-through stage must carry time.
	var passPS int64
	for _, c := range p.Net.Classes {
		passPS += c.Stages[prof.StagePassThrough.String()]
	}
	if passPS == 0 {
		t.Error("UMN overlay run attributed no pass-through time")
	}
	if len(p.Kernels) == 0 || len(p.KernelSpans) == 0 {
		t.Fatalf("compute breakdown empty: %d kernel-GPU records, %d spans", len(p.Kernels), len(p.KernelSpans))
	}
	var instrs, computePS, memWaitPS int64
	for _, k := range p.Kernels {
		if k.Launches == 0 {
			t.Fatalf("kernel %s on gpu%d recorded no launches: %+v", k.Kernel, k.GPU, k)
		}
		instrs += k.Instrs
		computePS += k.ComputePS
		memWaitPS += k.MemWaitPS
	}
	if instrs == 0 || computePS == 0 || memWaitPS == 0 {
		t.Fatalf("compute breakdown carried no work: %d instrs, %d compute ps, %d mem-wait ps",
			instrs, computePS, memWaitPS)
	}
	if len(p.HMCs) != sys.Network().NumRouters() {
		t.Fatalf("profile has %d HMC sections, want %d", len(p.HMCs), sys.Network().NumRouters())
	}
}

// TestProfileWritten checks the file path: ProfileOut alone enables
// profiling and the written JSON round-trips through the loader.
func TestProfileWritten(t *testing.T) {
	dir := t.TempDir()
	cfg := tiny(GMN, "VA")
	cfg.ProfileOut = filepath.Join(dir, "run.profile.json")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	p, err := prof.LoadFile(cfg.ProfileOut)
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema != prof.Schema {
		t.Fatalf("written schema %q, want %q", p.Schema, prof.Schema)
	}
	if p.Run != "VA/GMN" {
		t.Fatalf("profile run label %q, want VA/GMN", p.Run)
	}
	if p.Net == nil || len(p.Net.Classes) == 0 {
		t.Fatal("written profile has no network section")
	}
	if p.PCIe == nil || p.PCIe.Transfers == 0 {
		t.Fatal("GMN run recorded no PCIe transfers in the profile")
	}
}
