package experiments

import (
	"fmt"
	"io"
)

// Experiment is one registered report: its ID and the runner that builds it.
type Experiment struct {
	ID  string
	Run func(Scale) *Report
}

// Experiments lists every experiment in paper order: the introduction's
// examples, the evaluation's tables and figures, then the extensions.
var Experiments = []Experiment{
	{"motivating", Motivating},
	{"table1", Table1},
	{"fig9", Fig9},
	{"table2", Table2},
	{"fig10", Fig10},
	{"table3", Table3},
	{"table4", Table4},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15", Fig15},
	{"fig16", Fig16},
	{"fig17", Fig17},
	{"ext-methods", ExtMethods},
	{"ext-updates", ExtUpdates},
	{"ext-pool", ExtPool},
	{"ext-scan", ExtScan},
}

// IDs returns the experiment IDs in paper order.
func IDs() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.ID
	}
	return out
}

// Run executes one experiment by ID and writes its report.
func Run(id string, sc Scale, w io.Writer) error {
	for _, e := range Experiments {
		if e.ID == id {
			e.Run(sc).Render(w)
			return nil
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// RunAll executes every experiment in paper order.
func RunAll(sc Scale, w io.Writer) {
	for _, e := range Experiments {
		e.Run(sc).Render(w)
	}
}
