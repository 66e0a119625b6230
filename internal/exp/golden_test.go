package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden sweep output")

// goldenFile holds `experiments -exp all -scale 0.05` stdout: every
// registry experiment in presentation order, each followed by the newline
// fmt.Println appends. It pins absolute results across commits, which the
// on-vs-off comparisons inside one build cannot.
var goldenFile = filepath.Join("testdata", "golden", "all-0.05.txt")

// goldenParams are the parameters cmd/experiments uses at -scale 0.05.
func goldenParams() Params {
	p := DefaultParams()
	p.Scale = 0.05
	return p
}

// renderAll renders every registry experiment as `experiments -exp all`
// prints it.
func renderAll(t *testing.T, p Params) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range Experiments() {
		out, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		buf.WriteString(out + "\n")
	}
	return buf.Bytes()
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/exp -run TestGolden -update` to regenerate)", err)
	}
	return want
}

// TestGolden regenerates the full sweep and compares it byte for byte
// with the committed golden; -update rewrites the file. Under -short only
// the Fig. 14 slice runs, checked against its block of the golden.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		e, _ := Find("fig14")
		out, err := e.Run(goldenParams())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(readGolden(t), []byte(out+"\n")) {
			t.Fatalf("fig14 diverges from its block of %s; run with -update if the change is intentional:\n%s", goldenFile, out)
		}
		return
	}
	got := renderAll(t, goldenParams())
	if *update {
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep diverges from %s at line %d; run with -update if the change is intentional",
			goldenFile, firstDiffLine(got, want))
	}
}

// firstDiffLine returns the 1-based line at which a and b first differ.
func firstDiffLine(a, b []byte) int {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
