package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Op: 1, ID: 1, StartNS: 0, EndNS: 100},
		{Name: "a", Op: 1, ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{Name: "b", Op: 1, ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps a
		{Name: "b", Op: 1, ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past op
	}}
	got := map[string]layerTime{}
	for _, lt := range tr.selfTimes() {
		got[lt.Name] = lt
	}
	if op := got["op"]; op.Total != 100 || op.Self != 100-50-10 {
		t.Errorf("op total %d self %d, want 100 and 40", op.Total, op.Self)
	}
	if b := got["b"]; b.Count != 2 || b.Total != 60 || b.Self != 60 {
		t.Errorf("b = %+v, want 2 spans, 60 total and self", b)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"memnet/internal/noc.(*Router).step":                           "memnet/internal/noc",
		"memnet/internal/pool.(*Pool[memnet/internal/noc.Packet]).Get": "memnet/internal/pool",
		"memnet/internal/noc.RunSynthetic.func1":                       "memnet/internal/noc",
		"runtime.mallocgc":                                             "runtime",
		"main.main":                                                    "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fold, err := foldProfile(path, runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if err != nil {
		t.Fatal(err)
	}
	if fold.Total == 0 || fold.InRoot == 0 {
		t.Fatalf("no samples folded: %+v", fold)
	}
	var sum float64
	for pkg := range fold.Self {
		sum += fold.share(pkg)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("package shares sum to %g", sum)
	}
	if err := os.WriteFile(path, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := foldProfile(path, ""); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestFoldTraces(t *testing.T) {
	text := `File: memnetd
Type: cpu
Duration: 1s, Total samples = 70000000ns ( 7.00%)
-----------+-------------------------------------------------------
  40000000ns   memnet/internal/noc.(*Router).step (inline)
             memnet/internal/noc.(*Network).tick
             memnet/internal/core.(*System).Execute
             main.main
-----------+-------------------------------------------------------
      worker:  1
  20000000ns   runtime.mallocgc
             memnet/internal/core.(*System).Execute
-----------+-------------------------------------------------------
  10000000ns   runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
`
	fold, err := foldTraces([]byte(text), "memnet/internal/core.(*System).Execute")
	if err != nil {
		t.Fatal(err)
	}
	want := &cpuFold{Total: 70e6, InRoot: 60e6,
		Self: map[string]int64{"memnet/internal/noc": 40e6, "runtime": 30e6},
		Root: map[string]int64{"memnet/internal/noc": 40e6, "runtime": 20e6}}
	if !reflect.DeepEqual(fold, want) {
		t.Errorf("fold = %+v, want %+v", fold, want)
	}
	if _, err := foldTraces([]byte("File: x\n"), ""); err == nil {
		t.Error("output without samples accepted")
	}
}
