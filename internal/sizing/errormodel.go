package sizing

import (
	"math"

	"cadb/internal/compress"
)

// ErrorModel holds the stochastic characterization of estimation errors
// (Appendix C). SampleCF bias and standard deviation follow c·(−ln f), which
// the paper fit by least squares and found stable across datasets and skews
// (Table 2); deduction errors grow linearly with the number of extrapolated
// indexes a (Table 3).
type ErrorModel struct {
	// SampleBiasCoef is c in bias = c·(−ln f); positive = overestimate.
	SampleBiasCoef map[compress.Method]float64
	// SampleStdCoef is c in σ = c·(−ln f).
	SampleStdCoef map[compress.Method]float64
	// ColSetStd is the (tiny, constant) σ of the ColSet deduction.
	ColSetStd float64
	// ColExtBiasPer is the per-extrapolated-index bias of ColExt.
	ColExtBiasPer map[compress.Method]float64
	// ColExtStdPer is the per-extrapolated-index σ of ColExt.
	ColExtStdPer map[compress.Method]float64
}

// DefaultErrorModel returns the constants of Tables 2–3 (NS = ROW/null
// suppression, LD = PAGE/local dictionary), with interpolated values for the
// methods the paper did not tabulate (global dictionary, RLE).
func DefaultErrorModel() *ErrorModel {
	return &ErrorModel{
		SampleBiasCoef: map[compress.Method]float64{
			compress.None:       0,
			compress.Row:        0.0005, // "bias of NS is always very low"
			compress.Page:       0.015,  // LD-Bias ≈ -0.015 ln f
			compress.GlobalDict: 0.006,
			compress.RLE:        0.012,
		},
		SampleStdCoef: map[compress.Method]float64{
			compress.None:       0,
			compress.Row:        0.0062, // NS-Stddev ≈ -0.0062 ln f
			compress.Page:       0.018,  // LD-Stddev ≈ -0.018 ln f
			compress.GlobalDict: 0.009,
			compress.RLE:        0.015,
		},
		ColSetStd: 0.0003,
		// ColExt constants are calibrated to THIS engine's measured
		// deduction errors (regenerate with `cadb-repro -exp table3`), the
		// way Appendix C fits them to SQL Server: NS extrapolation is
		// nearly exact here, while page-local dictionary extrapolation is
		// far noisier than the paper's (our PAGE compression leans on
		// per-page prefixes that fragment harder), so the planner treats
		// PAGE deductions as a last resort.
		ColExtBiasPer: map[compress.Method]float64{
			compress.None:       0,
			compress.Row:        0.003,
			compress.Page:       0.077,
			compress.GlobalDict: 0.01,
			compress.RLE:        0.08,
		},
		ColExtStdPer: map[compress.Method]float64{
			compress.None:       0.0005,
			compress.Row:        0.002,
			compress.Page:       0.12,
			compress.GlobalDict: 0.01,
			compress.RLE:        0.12,
		},
	}
}

// SampleError returns (mean, std) of X for SampleCF at sampling fraction f.
func (m *ErrorModel) SampleError(method compress.Method, f float64) (mean, std float64) {
	if f >= 1 {
		return 1, 0 // full scan is exact
	}
	if f <= 0 {
		f = 1e-6
	}
	l := -math.Log(f)
	return 1 + m.SampleBiasCoef[method]*l, m.SampleStdCoef[method] * l
}

// ColExtError returns (mean, std) of X_ColExt when extrapolating from a
// indexes.
func (m *ErrorModel) ColExtError(method compress.Method, a int) (mean, std float64) {
	fa := float64(a)
	return 1 + m.ColExtBiasPer[method]*fa, m.ColExtStdPer[method] * fa
}

// deducedError returns (mean, std) of X for a deduction of the given kind
// from a children whose errors child reports: the children's error variables
// multiplied together with the deduction's own — ColSet's constant σ, or
// ColExt's error over a extrapolated indexes. The planner and the deductions
// it schedules both compose errors here, so an executed estimate carries the
// error its plan node was chosen with.
func (m *ErrorModel) deducedError(kind DeductionKind, method compress.Method, a int, child func(i int) (mean, std float64)) (mean, std float64) {
	mean, std = 1.0, 0.0
	for i := 0; i < a; i++ {
		cm, cs := child(i)
		mean, std = compose(mean, std, cm, cs)
	}
	switch kind {
	case DeduceColSet:
		mean, std = compose(mean, std, 1, m.ColSetStd)
	case DeduceColExt:
		dm, ds := m.ColExtError(method, a)
		mean, std = compose(mean, std, dm, ds)
	}
	return mean, std
}

// compose multiplies two error random variables: E[XY] = E[X]E[Y] (assuming
// independence) and V[XY] = Π(Vi+Ei²) − ΠEi² (Goodman 1962), as Section 5.1
// prescribes.
func compose(m1, s1, m2, s2 float64) (mean, std float64) {
	mean = m1 * m2
	v := (s1*s1+m1*m1)*(s2*s2+m2*m2) - m1*m1*m2*m2
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// ProbWithin returns P(1/(1+e) <= X <= 1+e) for a normal X with the given
// mean and std — the accuracy constraint of the problem statement
// (Section 5.1).
func ProbWithin(mean, std, e float64) float64 {
	lo, hi := 1/(1+e), 1+e
	if std <= 1e-12 {
		if mean >= lo && mean <= hi {
			return 1
		}
		return 0
	}
	return normCDF((hi-mean)/std) - normCDF((lo-mean)/std)
}

// normCDF is the standard normal CDF.
func normCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// FitLogCoefficient fits c in y ≈ c·(−ln f) by least squares through the
// origin — the Table 2 analysis. Inputs are parallel slices of sampling
// fractions and observed values (bias or std).
func FitLogCoefficient(fs, ys []float64) float64 {
	var num, den float64
	for i := range fs {
		x := -math.Log(fs[i])
		num += x * ys[i]
		den += x * x
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// FitLinearCoefficient fits c in y ≈ c·a by least squares through the origin
// — the Table 3 analysis (deduction error vs number of indexes a).
func FitLinearCoefficient(as []int, ys []float64) float64 {
	var num, den float64
	for i := range as {
		x := float64(as[i])
		num += x * ys[i]
		den += x * x
	}
	if den == 0 {
		return 0
	}
	return num / den
}
