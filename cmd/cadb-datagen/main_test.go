package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// datagen runs the command and returns its streams and exit code.
func datagen(args ...string) (stdout, stderr string, code int) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

func TestMaterializedDatabaseReport(t *testing.T) {
	out, stderr, code := datagen("-db", "sales", "-rows", "500")
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	for _, want := range []string{"database sales:", "[fact]", "compressibility", "GDICT="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestUnknownDBExits1(t *testing.T) {
	out, stderr, code := datagen("-db", "nope")
	if code != 1 || out != "" || !strings.Contains(stderr, "cadb-datagen:") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and a diagnostic", code, out, stderr)
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	// -scale was a second spelling of -rows; it is gone.
	if _, _, code := datagen("-scale", "2"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestChunkSpillFlagsExit2: -chunk and -spill are not flags — the command
// only reports databases it generates in memory — so each exits 2 unrun and
// no segment file is written.
func TestChunkSpillFlagsExit2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.seg")
	for _, args := range [][]string{
		{"-db", "tpch", "-chunk"},
		{"-db", "tpch", "-spill", path},
		{"-db", "tpch", "-chunk", "-rows", "100", "-spill", path},
	} {
		if out, _, code := datagen(args...); code != 2 || out != "" {
			t.Fatalf("%v: exit %d, stdout %q; want exit 2 and no report", args, code, out)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("segment file exists after a rejected flag (stat err %v)", err)
	}
}

// TestMethodFlagExits2: -method named the codec a spilled segment was written
// under; with no spill it is not a flag, in any case spelling.
func TestMethodFlagExits2(t *testing.T) {
	for _, m := range []string{"page", "GDICT", "nope"} {
		if out, _, code := datagen("-db", "tpch", "-method", m); code != 2 || out != "" {
			t.Fatalf("-method %s: exit %d, stdout %q; want exit 2 and no report", m, code, out)
		}
	}
}
