package index

import (
	"math"
	"math/big"
	"math/bits"
)

// exactSum is a SUM/AVG running total kept without rounding, so the float64
// that value rounds it to is the same whatever order the rows arrive in.
//
// Most addends land in lane, a 192-bit two's-complement integer in units of
// 2^-64: every INT/DATE value, and every float below 2^64 whose lowest set
// bit is worth at least 2^-64. Each is below 2^128 units, so 2^63 of them
// cannot overflow. Other finite floats go to rest, an integer in units of
// 2^-1074, the smallest subnormal. Infinities and NaNs are only noted.
type exactSum struct {
	lane [3]uint64 // little-endian words
	rest *big.Int
	inf  int8 // the sign of the infinities added
	nan  bool // a NaN, or infinities of both signs, was added
}

// add adds a 192-bit two's-complement integer of lane units.
func (s *exactSum) add(w [3]uint64) {
	var c uint64
	s.lane[0], c = bits.Add64(s.lane[0], w[0], 0)
	s.lane[1], c = bits.Add64(s.lane[1], w[1], c)
	s.lane[2], _ = bits.Add64(s.lane[2], w[2], c)
}

// negate returns -w in 192-bit two's complement.
func negate(w [3]uint64) [3]uint64 {
	var c uint64
	w[0], c = bits.Sub64(0, w[0], 0)
	w[1], c = bits.Sub64(0, w[1], c)
	w[2], _ = bits.Sub64(0, w[2], c)
	return w
}

// addInt adds an INT/DATE value: v × 2^64 lane units is v in the middle word.
func (s *exactSum) addInt(v int64) {
	s.add([3]uint64{0, uint64(v), uint64(v >> 63)})
}

// addFloat adds a float64; tmp is scratch for the out-of-lane path.
func (s *exactSum) addFloat(f float64, tmp *big.Int) {
	b := math.Float64bits(f)
	neg, exp, mant := b>>63 != 0, int(b>>52&0x7FF), b&(1<<52-1)
	switch {
	case exp == 0x7FF:
		sign := 1 - 2*int8(b>>63)
		s.nan = s.nan || mant != 0 || s.inf == -sign
		s.inf = sign
		return
	case exp == 0: // zero or subnormal: mant × 2^-1074, as if exp were 1
		exp = 1
	default:
		mant |= 1 << 52
	}
	// |f| = mant × 2^(exp-1075), which is mant << sh lane units.
	sh := exp - 1011
	if sh < 0 && mant>>-sh<<-sh == mant { // no bits below the lane's unit
		mant, sh = mant>>-sh, 0
	}
	var w [3]uint64
	switch {
	case sh < 0 || sh > 75:
		if s.rest == nil {
			s.rest = new(big.Int)
		}
		if tmp.Lsh(tmp.SetUint64(mant), uint(exp-1)); neg {
			tmp.Neg(tmp)
		}
		s.rest.Add(s.rest, tmp)
		return
	case sh < 64:
		w[0], w[1] = mant<<sh, mant>>(64-sh)
	default:
		w[1] = mant << (sh - 64)
	}
	if neg {
		w = negate(w)
	}
	s.add(w)
}

// value rounds the exact total to the nearest float64, ties to even; a
// total that met a non-finite value is one canonical Inf or NaN.
func (s *exactSum) value() float64 {
	switch {
	case s.nan:
		return math.NaN()
	case s.inf != 0:
		return math.Inf(int(s.inf))
	}
	w, neg := s.lane, int64(s.lane[2]) < 0
	if neg {
		w = negate(w)
	}
	if s.rest != nil {
		x := new(big.Int)
		for i := 2; i >= 0; i-- {
			x.Lsh(x, 64).Add(x, new(big.Int).SetUint64(w[i]))
		}
		if neg {
			x.Neg(x)
		}
		f := new(big.Float).SetInt(x.Lsh(x, 1074-64).Add(x, s.rest))
		v, _ := f.SetMantExp(f, -1074).Float64()
		return v
	}
	// Normalize the magnitude so its top bit is bit 191, keep 53 bits, each
	// worth 2^e, and round on the rest.
	hi, mid, lo, e := w[2], w[1], w[0], 75
	for hi == 0 {
		if mid == 0 && lo == 0 {
			return 0
		}
		hi, mid, lo, e = mid, lo, 0, e-64
	}
	n := bits.LeadingZeros64(hi)
	hi, mid, lo, e = hi<<n|mid>>(64-n), mid<<n|lo>>(64-n), lo<<n, e-n
	m, r := hi>>11, hi&0x7FF
	if r > 0x400 || r == 0x400 && (mid|lo != 0 || m&1 == 1) {
		m++
	}
	v := math.Ldexp(float64(m), e)
	if neg {
		v = -v
	}
	return v
}
