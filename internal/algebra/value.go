// Package algebra defines the logical relational algebra manipulated by the
// optimizer: values, columns, scalar expressions, predicates in conjunctive
// normal form, and logical operators (scan, select, join, aggregate, project).
//
// Every construct can produce a canonical fingerprint string: equal strings
// mean the same expression. The AND-OR DAG (package dag) reads a clause's or
// operator's fingerprint once, to intern it as an integer, and detects
// duplicate operation nodes on those integers (paper §2.1, extension 1);
// the strings themselves are the identity that outlives one DAG — plan
// printing, dag.CanonicalFingerprints, the result- and plan-cache keys.
package algebra

import (
	"fmt"
	"strconv"
)

// Type enumerates the column types supported by the engine.
type Type uint8

const (
	// TInt is a 64-bit signed integer.
	TInt Type = iota
	// TFloat is a 64-bit IEEE float.
	TFloat
	// TString is a variable-length string.
	TString
	// TDate is a date stored as days since an arbitrary epoch.
	TDate
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TDate:
		return "date"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Value is a dynamically-typed scalar value. Exactly one of the payload
// fields is meaningful, selected by Typ. Values are comparable with == only
// within the same type; use Compare for ordering.
type Value struct {
	Typ Type
	I   int64   // TInt, TDate
	F   float64 // TFloat
	S   string  // TString
}

// IntVal returns an integer Value.
func IntVal(i int64) Value { return Value{Typ: TInt, I: i} }

// FloatVal returns a float Value.
func FloatVal(f float64) Value { return Value{Typ: TFloat, F: f} }

// StringVal returns a string Value.
func StringVal(s string) Value { return Value{Typ: TString, S: s} }

// DateVal returns a date Value from days since epoch.
func DateVal(days int64) Value { return Value{Typ: TDate, I: days} }

// IsNumeric reports whether the value is of a numeric (orderable by number)
// type.
func (v Value) IsNumeric() bool { return v.Typ == TInt || v.Typ == TFloat || v.Typ == TDate }

// AsFloat converts a numeric value to float64. Strings convert to 0.
func (v Value) AsFloat() float64 {
	switch v.Typ {
	case TInt, TDate:
		return float64(v.I)
	case TFloat:
		return v.F
	}
	return 0
}

// Compare orders two values. Numeric types (int, float, date) compare by
// numeric value even across types; strings compare lexicographically.
// Comparing a string with a numeric value orders the string after all
// numbers, which gives a total order for sorting heterogeneous keys.
func Compare(a, b Value) int {
	an, bn := a.IsNumeric(), b.IsNumeric()
	switch {
	case an && bn:
		return CompareFloat(a.AsFloat(), b.AsFloat())
	case !an && !bn:
		if a.S < b.S {
			return -1
		}
		if a.S > b.S {
			return 1
		}
		return 0
	case an:
		return -1
	default:
		return 1
	}
}

// CompareFloat is Compare's order of two numbers, a total one as PostgreSQL
// orders floats: IEEE order with -0 equal to 0, and every NaN equal to every
// other NaN and above every number.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b, a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// String renders the value for plans and fingerprints. The rendering is
// canonical: equal values always render identically.
func (v Value) String() string { return string(v.appendTo(nil)) }

func (v Value) appendTo(dst []byte) []byte {
	switch v.Typ {
	case TInt:
		return strconv.AppendInt(dst, v.I, 10)
	case TDate:
		return strconv.AppendInt(append(dst, 'd'), v.I, 10)
	case TFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case TString:
		return strconv.AppendQuote(dst, v.S)
	}
	return append(dst, '?')
}

// Column names a column of a relation. Rel is the relation alias introduced
// by a Scan (or the name of an aggregate output), Name is the column name.
type Column struct {
	Rel  string
	Name string
}

// Col is shorthand for constructing a Column.
func Col(rel, name string) Column { return Column{Rel: rel, Name: name} }

// String returns the qualified "rel.name" form.
func (c Column) String() string { return c.Rel + "." + c.Name }

func (c Column) appendTo(dst []byte) []byte {
	return append(append(append(dst, c.Rel...), '.'), c.Name...)
}

// Less orders columns lexicographically, used to canonicalize column sets.
func (c Column) Less(o Column) bool {
	if c.Rel != o.Rel {
		return c.Rel < o.Rel
	}
	return c.Name < o.Name
}

// ColInfo describes one column of a schema.
type ColInfo struct {
	Col Column
	Typ Type
}

// Schema is an ordered list of columns with types.
type Schema []ColInfo

// IndexOf returns the position of column c in the schema, or -1.
func (s Schema) IndexOf(c Column) int {
	for i, ci := range s {
		if ci.Col == c {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains column c.
func (s Schema) Has(c Column) bool { return s.IndexOf(c) >= 0 }

// HasAll reports whether the schema contains every column in cols.
func (s Schema) HasAll(cols []Column) bool {
	for _, c := range cols {
		if !s.Has(c) {
			return false
		}
	}
	return true
}

// Concat returns the schema of the concatenation of s and o (join output).
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return out
}

// Columns returns just the column identities of the schema.
func (s Schema) Columns() []Column {
	cols := make([]Column, len(s))
	for i, ci := range s {
		cols[i] = ci.Col
	}
	return cols
}

// String renders the schema as (a.b:int, ...).
func (s Schema) String() string {
	out := "("
	for i, ci := range s {
		if i > 0 {
			out += ", "
		}
		out += ci.Col.String() + ":" + ci.Typ.String()
	}
	return out + ")"
}
