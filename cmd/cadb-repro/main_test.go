package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cadb"
)

// repro runs the command and returns its streams and exit code.
func repro(args ...string) (stdout, stderr string, code int) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// reportIDs lists the experiment IDs of the reports in a rendered output, in
// order ("== <id>: <title> ==" opens each).
func reportIDs(out string) []string {
	var ids []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ := strings.Cut(rest, ":")
			ids = append(ids, id)
		}
	}
	return ids
}

// TestListMatchesExperimentIDs: -list prints the registered IDs in paper
// order, the introduction's examples first and the extensions last.
func TestListMatchesExperimentIDs(t *testing.T) {
	out, _, code := repro("-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if want := strings.Join(cadb.ExperimentIDs(), "\n") + "\n"; out != want {
		t.Fatalf("-list printed\n%s\nwant\n%s", out, want)
	}
	if ids := strings.Fields(out); ids[0] != "motivating" || ids[1] != "table1" || ids[len(ids)-1] != "ext-scan" {
		t.Fatalf("-list is not in paper order: %v", ids)
	}
}

// TestPositionalSelectsLikeExp pins the fix: an experiment named as an
// argument — before or after the flags — selects exactly what -exp does.
func TestPositionalSelectsLikeExp(t *testing.T) {
	want, _, code := repro("-exp", "ext-methods", "-quick")
	if code != 0 {
		t.Fatalf("-exp: exit %d", code)
	}
	if ids := reportIDs(want); len(ids) != 1 || ids[0] != "ext-methods" {
		t.Fatalf("-exp ext-methods rendered reports %v, want exactly [ext-methods]", ids)
	}
	for _, args := range [][]string{
		{"ext-methods", "-quick"},
		{"-quick", "ext-methods"},
	} {
		got, stderr, code := repro(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d; stderr: %s", args, code, stderr)
		}
		if got != want {
			t.Errorf("%v rendered\n%s\nwant the -exp report\n%s", args, got, want)
		}
	}
}

func TestUnknownIDExitsNonZeroAndNamesValidOnes(t *testing.T) {
	for _, args := range [][]string{
		{"nope"},
		{"-exp", "nope"},
		{"-quick", "ext-methods", "nope"}, // rejected before ext-methods runs
	} {
		out, stderr, code := repro(args...)
		if code == 0 {
			t.Errorf("%v: exit 0, want non-zero", args)
		}
		if out != "" {
			t.Errorf("%v: rendered a report before rejecting the ID:\n%s", args, out)
		}
		if !strings.Contains(stderr, `"nope"`) {
			t.Errorf("%v: stderr does not name the bad ID: %s", args, stderr)
		}
		for _, id := range cadb.ExperimentIDs() {
			if !strings.Contains(stderr, id) {
				t.Errorf("%v: stderr does not list valid ID %s: %s", args, id, stderr)
			}
		}
	}
	if _, _, code := repro("-notaflag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

func TestNoArgumentsRunsEverything(t *testing.T) {
	out, stderr, code := repro("-quick", "-rows", "1000")
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	if got, want := reportIDs(out), cadb.ExperimentIDs(); !slices.Equal(got, want) {
		t.Fatalf("rendered reports %v, want one each of %v in that order", got, want)
	}
}
