package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/overhead"
	"repro/internal/partition"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// goldenSection4 is the pinned Section-4 acceptance table: the path to
// its golden file and the sweep that produces it.
const goldenSection4 = "testdata/section4_golden.csv"

// TestSection4GoldenTable pins the paper's Section-4 acceptance table
// — all nine algorithms, zero and paper overhead models, 4 cores, 16
// tasks, the default 16-point grid — to a file generated once and
// committed. Unlike TestSweepMatchesArenaFreeReference, which compares
// two paths through the current code, this catches a change that
// moves both paths alike: any accepted count, split mean or interval
// that differs from the file fails the test. Regenerate it with
// `go test -run TestSection4GoldenTable ./internal/experiment/ -update`
// only when a change is meant to move the verdicts.
func TestSection4GoldenTable(t *testing.T) {
	algs := []partition.Algorithm{
		partition.TS, partition.FFD, partition.WFD, partition.BFD,
		partition.SPA1, partition.SPA2,
		partition.WM, partition.EDFFFD, partition.EDFWFD,
	}
	var sb strings.Builder
	for _, mm := range []struct {
		name  string
		model *overhead.Model
	}{
		{"zero", overhead.Zero()},
		{"paper", overhead.PaperModel()},
	} {
		r := Run(Config{
			Cores:        4,
			Tasks:        16,
			SetsPerPoint: 50,
			Model:        mm.model,
			Seed:         1,
			Algorithms:   algs,
		})
		sb.WriteString("# model=" + mm.name + " cores=4 tasks=16 sets=50 seed=1\n")
		sb.WriteString(r.CSV())
	}
	got := sb.String()

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenSection4), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSection4, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenSection4)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", goldenSection4, i+1, g, w)
		}
	}
}
