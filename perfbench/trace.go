package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side.
// Spans of one op share Op; Parent is the enclosing span's ID (0 = root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, op int, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{name, op, id, parent, start, end})
		t.mu.Unlock()
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes returns each span name's total time and its self time: the
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.EndNS - s.StartNS
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(s, children[s.ID]))
	}
	var out []layerTime
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var sum, end int64 = 0, parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, end), min(k.EndNS, parent.EndNS)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return sum
}

// cpuFold is a CPU profile folded by the package of each stack's leaf
// frame (self time), in nanoseconds of CPU time: over all stacks, and over
// the stacks that pass through a root function (core.(*System).Execute for
// the full-system runs).
type cpuFold struct {
	Total, InRoot int64
	Self, Root    map[string]int64
}

// share returns pkg's fraction of all CPU time.
func (f *cpuFold) share(pkg string) float64 {
	if f == nil || f.Total == 0 {
		return 0
	}
	return float64(f.Self[pkg]) / float64(f.Total)
}

// write stores the fold as text: package, self CPU time, share, and the
// CPU time under the root function.
func (f *cpuFold) write(path string) error {
	var b bytes.Buffer
	pkgs := make([]string, 0, len(f.Self))
	for p := range f.Self {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return f.Self[pkgs[i]] > f.Self[pkgs[j]] })
	fmt.Fprintf(&b, "# cpu_ms=%.0f under_root_ms=%.0f\n%-40s %10s %7s %13s\n", ms(f.Total), ms(f.InRoot), "package", "self_ms", "share", "under_root_ms")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "%-40s %10.0f %6.1f%% %13.0f\n", p, ms(f.Self[p]), 100*f.share(p), ms(f.Root[p]))
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// pkgOf returns the import path of a symbol such as
// "memnet/internal/noc.(*Router).step".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		head = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile folds the samples of the pprof CPU profile at path. The Go
// toolchain's `go tool pprof -traces` prints each sample's stack as text,
// so no profile decoder is needed here.
func foldProfile(path, root string) (*cpuFold, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return foldTraces(out, root)
}

// foldTraces folds the text of `go tool pprof -traces -unit=ns`: after a
// header, each stack is a block that follows a "-----------+---"
// separator. Its first line holds the stack's CPU time and the leaf
// function; the lines below name the callers, one per line. Label lines
// ("key:  value") may precede the stack.
func foldTraces(text []byte, root string) (*cpuFold, error) {
	fold := &cpuFold{Self: map[string]int64{}, Root: map[string]int64{}}
	var (
		n     int64
		leaf  string
		under bool
	)
	flush := func() {
		if leaf == "" {
			return
		}
		pkg := pkgOf(leaf)
		fold.Total += n
		fold.Self[pkg] += n
		if under {
			fold.InRoot += n
			fold.Root[pkg] += n
		}
		leaf, under = "", false
	}
	blocks := 0
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			blocks++
			continue
		}
		if blocks == 0 || strings.TrimSpace(line) == "" || strings.Contains(line, ":  ") {
			continue // header, blank or label line
		}
		fn := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if value, name, ok := strings.Cut(fn, "   "); ok && leaf == "" {
			d, err := time.ParseDuration(strings.TrimSpace(value))
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample value in %q: %w", line, err)
			}
			n, leaf, fn = d.Nanoseconds(), strings.TrimSpace(name), strings.TrimSpace(name)
		}
		if fn == root {
			under = true
		}
	}
	flush()
	if blocks == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples in its output")
	}
	return fold, nil
}
