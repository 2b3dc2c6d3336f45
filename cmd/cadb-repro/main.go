// Command cadb-repro regenerates the paper's evaluation tables and figures
// as text reports.
//
// Usage:
//
//	cadb-repro                        # run everything at full scale
//	cadb-repro fig12                  # one experiment (same as -exp fig12)
//	cadb-repro -exp fig12,fig13       # several
//	cadb-repro -quick                 # reduced scale (fast smoke run)
//	cadb-repro ext-pool -rows 1000000 # override database size
//	cadb-repro -list                  # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"cadb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so experiment selection
// is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadb-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "", "experiment ids, comma-separated (same as naming them as arguments; none = all)")
		quick = fs.Bool("quick", false, "reduced scale for a fast smoke run")
		rows  = fs.Int("rows", 0, "override fact-table row count")
		seed  = fs.Int64("seed", 42, "generator seed")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	// Experiment IDs may come before, between or after flags: the flag
	// package stops at the first non-flag, so take it and parse on.
	var named []string
	for {
		if err := fs.Parse(args); err != nil {
			if err == flag.ErrHelp {
				return 0
			}
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		named = append(named, fs.Arg(0))
		args = fs.Args()[1:]
	}

	if *list {
		for _, id := range cadb.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	ids, err := resolve(*exp, named)
	if err != nil {
		fmt.Fprintln(stderr, "cadb-repro:", err)
		return 1
	}

	sc := cadb.DefaultExperimentScale()
	if *quick {
		sc = cadb.QuickExperimentScale()
	}
	if *rows > 0 {
		sc.LineitemRows = *rows
		sc.SalesRows = *rows
	}
	sc.Seed = *seed

	if len(ids) == 0 {
		err = cadb.RunAllExperiments(sc, stdout)
	}
	for i := 0; err == nil && i < len(ids); i++ {
		err = cadb.RunExperiment(ids[i], sc, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cadb-repro:", err)
		return 1
	}
	return 0
}

// resolve turns the -exp list and the positional arguments into the
// experiment IDs to run, in the order given. Both spellings go through here,
// and an unknown ID is rejected before anything runs.
func resolve(exp string, named []string) ([]string, error) {
	var ids []string
	if exp != "" {
		ids = strings.Split(exp, ",")
	}
	ids = append(ids, named...)
	known := cadb.ExperimentIDs()
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if !slices.Contains(known, ids[i]) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids (-list):\n  %s", ids[i], strings.Join(known, "\n  "))
		}
	}
	return ids, nil
}
