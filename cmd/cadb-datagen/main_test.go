package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadb"
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
	for _, args := range [][]string{
		{"-db", "nope"},
		{"-db", "nope", "-chunk"},
		{"-db", "tpcds", "-chunk"}, // no chunked tpcds source
	} {
		out, stderr, code := datagen(args...)
		if code != 1 || out != "" || !strings.Contains(stderr, "cadb-datagen:") {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q; want exit 1 and a diagnostic", args, code, out, stderr)
		}
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	// -scale was a second spelling of -rows; it is gone.
	if _, _, code := datagen("-scale", "2"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestUnknownMethodNamesTheValidOnes: a bad -method fails before any file is
// created and lists every method a segment can be spilled under.
func TestUnknownMethodNamesTheValidOnes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.seg")
	_, stderr, code := datagen("-db", "tpch", "-chunk", "-rows", "100", "-spill", path, "-method", "nope")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, m := range []string{"NONE", "ROW", "PAGE", "GDICT", "RLE"} {
		if !strings.Contains(stderr, m) {
			t.Fatalf("diagnostic does not name %s: %s", m, stderr)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("segment file exists after a rejected -method (stat err %v)", err)
	}
}

// TestChunkSpillRoundTrip pins the -method fix: a lowercase GDICT (rejected
// by the old exact-case NONE/ROW/PAGE matcher) spills, the command closes
// the file, and a fresh OpenSegmentFile sees every row under that codec.
func TestChunkSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.seg")
	out, stderr, code := datagen("-db", "tpch", "-chunk", "-rows", "3000", "-spill", path, "-method", "gdict")
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "(GDICT)") {
		t.Fatalf("report does not name the method:\n%s", out)
	}
	sf, err := cadb.OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if sf.Rows() != 3000 || sf.CodecName() != "GDICT" || sf.NumPages() == 0 {
		t.Fatalf("reopened segment: %d rows, codec %s, %d pages; want 3000 rows of GDICT",
			sf.Rows(), sf.CodecName(), sf.NumPages())
	}
	if _, err := sf.ReadPage(sf.NumPages() - 1); err != nil {
		t.Fatalf("last page fails its checksum: %v", err)
	}
}
