package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const tpcdsWarning = "tpcds has no built-in workload"

// TestTPCDSWithoutWorkloadWarnsAndExits pins the flag-handling fix: -db
// tpcds without -workload must warn on stderr and exit non-zero.
func TestTPCDSWithoutWorkloadWarnsAndExits(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-db", "tpcds", "-rows", "200"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), tpcdsWarning) {
		t.Fatalf("stderr missing the warning: %q", stderr.String())
	}
}

// TestTPCDSWithWorkloadRunsWithoutWarning is the regression half: when
// -workload IS provided the warning must not print and the advisor must run.
func TestTPCDSWithWorkloadRunsWithoutWarning(t *testing.T) {
	wlPath := filepath.Join(t.TempDir(), "wl.sql")
	sql := `-- label: D1 weight: 1
SELECT ss_item_sk, COUNT(*) FROM store_sales WHERE ss_quantity <= 10 GROUP BY ss_item_sk;
`
	if err := os.WriteFile(wlPath, []byte(sql), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-db", "tpcds", "-rows", "500", "-workload", wlPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), tpcdsWarning) {
		t.Fatalf("warning printed despite -workload: %q", stderr.String())
	}
	if !strings.Contains(stdout.String(), "recommendation") {
		t.Fatalf("no recommendation in output: %q", stdout.String())
	}
}

func TestUnknownDBAndMixExitNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-db", "ghost"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown db: exit %d, want 1", code)
	}
	stderr.Reset()
	if code := run([]string{"-db", "tpch", "-rows", "200", "-mix", "ghost"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown mix: exit %d, want 1", code)
	}
	if code := run([]string{"-notaflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	// -h prints usage and succeeds, matching the pre-refactor ExitOnError
	// behavior.
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
}

// TestProfileFlagsWriteProfiles checks -cpuprofile and -memprofile each
// leave a non-empty profile, and that an unwritable path is an error.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-db", "sales", "-rows", "1500", "-features", "all", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err %v)", path, err)
		}
	}
	if code := run([]string{"-db", "sales", "-rows", "1500", "-cpuprofile", filepath.Join(dir, "no", "such", "dir.prof")}, &stdout, &stderr); code != 1 {
		t.Fatalf("unwritable profile path: exit %d, want 1", code)
	}
}
