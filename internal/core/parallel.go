package core

import "runtime"

// workers resolves Options.Parallelism: non-positive means one worker per
// available CPU.
func (a *Advisor) workers() int {
	if p := a.Opts.Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}
