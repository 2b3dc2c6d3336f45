package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// measuredSweeps are the experiments without a golden: every number they
// report is a timing or depends on one.
var measuredSweeps = map[string]bool{"ext-pool": true, "ext-scan": true}

const goldenDir = "testdata/golden"

// TestGoldenReports renders every other experiment at QuickScale, wall clock
// masked, and compares it byte for byte with testdata/golden/<id>.txt. A
// change that moves a figure fails here. On a mismatch the test writes the
// full new report to a temporary directory and names it; when the move is
// intended, copy that file over the golden and say why. A golden whose
// experiment is gone or measured fails too.
func TestGoldenReports(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]bool{}
	for _, e := range Experiments {
		golden[e.ID+".txt"] = !measuredSweeps[e.ID]
	}
	for _, f := range files {
		if !golden[filepath.Base(f)] {
			t.Errorf("%s is not the golden of a registered, deterministic experiment", f)
		}
	}

	var outDir string
	for _, e := range Experiments {
		if measuredSweeps[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			rep := e.Run(QuickScale())
			rep.maskClocks()
			var got bytes.Buffer
			rep.Render(&got)
			// A missing golden (a new experiment) fails like any other
			// mismatch, leaving the report to copy in.
			want, err := os.ReadFile(filepath.Join(goldenDir, e.ID+".txt"))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			if outDir == "" {
				if outDir, err = os.MkdirTemp("", "cadb-golden-"); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(outDir, e.ID+".txt")
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			line, g, w := firstDiff(got.String(), string(want))
			t.Fatalf("report differs from %s/%s.txt at line %d:\n got  %q\n want %q\nfull report: %s",
				goldenDir, e.ID, line, g, w, path)
		})
	}
}

// firstDiff returns the first line (1-based) where got and want differ, and
// that line of each.
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
}
