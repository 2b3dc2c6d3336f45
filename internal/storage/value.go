// Package storage provides the low-level physical representation used by the
// simulated database engine: typed values, schemas, rows, a row codec and
// fixed-size slotted pages.
//
// The engine is deliberately simple but physically honest: index sizes are
// obtained by actually serializing rows into 8 KB pages, which is what makes
// compression fractions depend on value distributions and tuple order the way
// the paper's deduction theory (Section 4.2) assumes.
package storage

import (
	"fmt"
	"strings"
)

// Kind enumerates the column types supported by the engine.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer.
	KindInt Kind = iota
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a (possibly fixed-width) character column.
	KindString
	// KindDate is a date stored as days since 1970-01-01.
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed cell. The zero Value is a NULL of kind KindInt.
type Value struct {
	Kind  Kind
	Null  bool
	Int   int64 // used by KindInt and KindDate (days since epoch)
	Float float64
	Str   string
}

// NullValue returns a NULL of the given kind.
func NullValue(k Kind) Value { return Value{Kind: k, Null: true} }

// IntVal returns an integer value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// FloatVal returns a float value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// StringVal returns a string value.
func StringVal(v string) Value { return Value{Kind: KindString, Str: v} }

// DateVal returns a date value given days since the Unix epoch.
func DateVal(days int64) Value { return Value{Kind: KindDate, Int: days} }

// Compare orders two values of the same kind. NULLs sort first.
// The result is -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0
		case v.Null:
			return -1
		default:
			return 1
		}
	}
	switch v.Kind {
	case KindInt, KindDate:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case v.Float < o.Float:
			return -1
		case v.Float > o.Float:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(v.Str, o.Str)
	}
	return 0
}

// Equal reports whether two values compare equal (NULL == NULL here, which is
// the grouping semantics used by materialized views).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// CoerceTo converts the value to the given kind where a lossless-enough
// numeric conversion exists (int↔float↔date). Strings are never converted.
// Predicate literals parsed from SQL are coerced to the column kind before
// comparison.
func (v Value) CoerceTo(k Kind) Value {
	if v.Null {
		return NullValue(k)
	}
	if v.Kind == k {
		return v
	}
	switch k {
	case KindFloat:
		switch v.Kind {
		case KindInt, KindDate:
			return FloatVal(float64(v.Int))
		}
	case KindInt, KindDate:
		switch v.Kind {
		case KindInt, KindDate:
			return Value{Kind: k, Int: v.Int}
		case KindFloat:
			return Value{Kind: k, Int: int64(v.Float)}
		}
	}
	return v
}

// Key returns a comparable representation usable as a map key for grouping
// and dictionary construction.
func (v Value) Key() ValueKey {
	if v.Null {
		return ValueKey{Kind: v.Kind, Null: true}
	}
	switch v.Kind {
	case KindFloat:
		return ValueKey{Kind: v.Kind, Float: v.Float}
	case KindString:
		return ValueKey{Kind: v.Kind, Str: v.Str}
	default:
		return ValueKey{Kind: v.Kind, Int: v.Int}
	}
}

// ValueKey is a comparable projection of Value (usable as a map key).
type ValueKey struct {
	Kind  Kind
	Null  bool
	Int   int64
	Float float64
	Str   string
}

// String renders a value for debugging and plan output.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float)
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindDate:
		return fmt.Sprintf("DATE(%d)", v.Int)
	}
	return "?"
}

// Row is a tuple of values laid out in schema column order.
type Row []Value

// Clone returns a deep copy of the row (values are immutable, so a shallow
// copy of the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// WithValue returns a copy of the row with column i replaced by v. The
// receiver is left untouched, so rows shared between a table and derived
// structures (samples, materialized indexes) stay consistent.
func (r Row) WithValue(i int, v Value) Row {
	out := r.Clone()
	out[i] = v
	return out
}
