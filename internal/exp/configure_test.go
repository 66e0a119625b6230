package exp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"memnet/internal/core"
	"memnet/internal/obs"
	"memnet/internal/par"
	"memnet/internal/sim"
)

// runLabels collects the progress-event run labels one hook's sink saw.
type runLabels struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (l *runLabels) sink(ev obs.ProgressEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = map[string]bool{}
	}
	l.seen[ev.Run] = true
}

// TestConfigureIsolation runs two registry experiments at once, each with
// its own Configure hook. The fig7 hook trips its stop latch on the first
// progress event and must come back with core.ErrStopped; the fig14 sweep
// must be unaffected and byte-identical to the golden. Each progress sink
// must see only its own experiment's runs (fig7 simulates only VA, fig14
// never does).
func TestConfigureIsolation(t *testing.T) {
	var stopped, plain runLabels
	stop := &sim.Stop{}
	stopHook := func(cfg *core.Config, _ string) {
		cfg.Stop = stop
		cfg.Progress = func(ev obs.ProgressEvent) {
			stopped.sink(ev)
			stop.Trip("tripped by the fig7 hook")
		}
	}
	plainHook := func(cfg *core.Config, _ string) { cfg.Progress = plain.sink }

	var (
		wg       sync.WaitGroup
		stopErr  error
		fig14Out string
		fig14Err error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		e, _ := Find("fig7")
		p := goldenParams()
		p.Configure = stopHook
		_, stopErr = e.Run(p)
	}()
	go func() {
		defer wg.Done()
		e, _ := Find("fig14")
		p := goldenParams()
		p.Configure = plainHook
		fig14Out, fig14Err = e.Run(p)
	}()
	wg.Wait()

	if !errors.Is(stopErr, core.ErrStopped) {
		t.Fatalf("fig7 under its tripped latch returned %v, want core.ErrStopped", stopErr)
	}
	if fig14Err != nil {
		t.Fatalf("fig14 next to a stopped sweep failed: %v", fig14Err)
	}
	if !bytes.Contains(readGolden(t), []byte(fig14Out+"\n")) {
		t.Fatalf("fig14 next to a stopped sweep diverges from %s:\n%s", goldenFile, fig14Out)
	}
	if len(stopped.seen) == 0 || len(plain.seen) == 0 {
		t.Fatalf("a sink saw nothing: fig7 %v, fig14 %v", stopped.seen, plain.seen)
	}
	for run := range stopped.seen {
		if !strings.HasPrefix(run, "VA/") {
			t.Errorf("fig7's sink saw foreign run %s", run)
		}
	}
	for run := range plain.seen {
		if strings.HasPrefix(run, "VA/") {
			t.Errorf("fig14's sink saw foreign run %s", run)
		}
	}
}

// TestRunFilesAcrossParallelism checks that per-run output files named
// after the run id come out with the same names and bytes whether the
// sweep runs on one worker or four.
func TestRunFilesAcrossParallelism(t *testing.T) {
	sweep := func(width int) map[string][]byte {
		prev := par.SetParallelism(width)
		defer par.SetParallelism(prev)
		dir := t.TempDir()
		_, err := Fig7(0.05, func(cfg *core.Config, run string) {
			cfg.TraceOut = filepath.Join(dir, run+".trace.json")
			cfg.ProfileOut = filepath.Join(dir, run+".profile.json")
		})
		if err != nil {
			t.Fatalf("par=%d: %v", width, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}
	seq, wide := sweep(1), sweep(4)
	if len(seq) != 12 { // six runs, one trace and one profile each
		t.Fatalf("par=1 wrote %d files, want 12", len(seq))
	}
	if _, ok := seq["000-VA-PCIe.trace.json"]; !ok {
		t.Fatalf("par=1 files %v lack 000-VA-PCIe.trace.json", keys(seq))
	}
	if len(wide) != len(seq) {
		t.Fatalf("par=4 wrote %v, par=1 wrote %v", keys(wide), keys(seq))
	}
	for name, data := range seq {
		other, ok := wide[name]
		if !ok {
			t.Fatalf("par=4 did not write %s (wrote %v)", name, keys(wide))
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("%s differs between par=1 and par=4", name)
		}
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
