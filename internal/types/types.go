// Package types defines the value types and schemas shared by every layer of
// the engine: storage, the suboperator IR, the closure VM, and the generated
// vectorized primitives.
//
// The type set is deliberately finite — the enumeration invariant of
// Incremental Fusion (paper §IV-A) requires that suboperator parameter
// spaces, of which types are the most common, can be exhaustively enumerated.
package types

import (
	"fmt"
	"strings"
	"time"
)

// Kind identifies a physical value type. Parameterized SQL types (decimals,
// chars) map onto these storage types, which keeps the primitive count small
// (paper §IV-B).
type Kind uint8

const (
	// Invalid is the zero Kind; no column or IR value may carry it.
	Invalid Kind = iota
	// Bool is a boolean column (filter conditions, match markers).
	Bool
	// Int32 is a 32-bit signed integer (also the storage type for Date).
	Int32
	// Int64 is a 64-bit signed integer (keys, counts).
	Int64
	// Float64 is a double; TPC-H decimals are computed in Float64.
	Float64
	// Date is a day count since 1970-01-01, stored as int32.
	Date
	// String is a variable-length byte string.
	String
	// Ptr is a reference to a packed row in runtime-managed memory
	// (hash-table entries, packed keys). Only exists inside pipelines.
	Ptr
)

// NumKinds is the number of valid kinds; used by enumeration loops.
const NumKinds = 8

// ScalarKinds lists the kinds user data can have (everything except Invalid
// and Ptr). Enumeration of expression primitives ranges over these.
var ScalarKinds = []Kind{Bool, Int32, Int64, Float64, Date, String}

// FixedKinds lists the fixed-width kinds usable in packed row layouts
// without length prefixes.
var FixedKinds = []Kind{Bool, Int32, Int64, Float64, Date}

func (k Kind) String() string {
	switch k {
	case Bool:
		return "bool"
	case Int32:
		return "i32"
	case Int64:
		return "i64"
	case Float64:
		return "f64"
	case Date:
		return "date"
	case String:
		return "str"
	case Ptr:
		return "ptr"
	default:
		return "invalid"
	}
}

// CName returns the C type name used by the C source emitter.
func (k Kind) CName() string {
	switch k {
	case Bool:
		return "bool"
	case Int32:
		return "int32_t"
	case Int64:
		return "int64_t"
	case Float64:
		return "double"
	case Date:
		return "int32_t"
	case String:
		return "ink_str_t"
	case Ptr:
		return "char*"
	default:
		return "void"
	}
}

// Width returns the byte width of the kind inside a packed row layout.
// Strings are variable-size and report -1; the row layout gives them
// length-prefixed slots (see rt.RowLayout).
//
//inkfuse:hotpath
func (k Kind) Width() int {
	switch k {
	case Bool:
		return 1
	case Int32, Date:
		return 4
	case Int64, Float64:
		return 8
	case String:
		return -1
	default:
		return 0
	}
}

// Fixed reports whether the kind has a fixed byte width.
func (k Kind) Fixed() bool { return k.Width() > 0 }

// Numeric reports whether arithmetic is defined on the kind.
func (k Kind) Numeric() bool {
	return k == Int32 || k == Int64 || k == Float64
}

// Comparable reports whether ordering comparisons are defined on the kind.
func (k Kind) Comparable() bool {
	switch k {
	case Int32, Int64, Float64, Date, String:
		return true
	}
	return false
}

// Rule is the set of kinds an operand position admits. The suboperator and
// IR descriptions state one per operand (core.Port, ir.Operands);
// core.VerifyPlan and ir.Verify check them.
type Rule uint16

const (
	// AnyKind admits every kind; it is the zero Rule.
	AnyKind Rule = 0
	// AnyFixed admits the fixed-width kinds, FixedKinds.
	AnyFixed Rule = 1<<Bool | 1<<Int32 | 1<<Int64 | 1<<Float64 | 1<<Date
	// AnyNumeric admits the kinds arithmetic is defined on.
	AnyNumeric Rule = 1<<Int32 | 1<<Int64 | 1<<Float64
)

// Is returns the rule admitting exactly the listed kinds.
func Is(ks ...Kind) Rule {
	var r Rule
	for _, k := range ks {
		r |= 1 << k
	}
	return r
}

// Admits reports whether the rule admits kind k.
func (r Rule) Admits(k Kind) bool { return r == AnyKind || r&(1<<k) != 0 }

func (r Rule) String() string {
	switch r {
	case AnyKind:
		return "any kind"
	case AnyFixed:
		return "fixed-width"
	case AnyNumeric:
		return "numeric"
	}
	var names []string
	for k, name := range [NumKinds]string{"Invalid", "Bool", "Int32", "Int64", "Float64", "Date", "String", "Ptr"} {
		if r&(1<<k) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, " or ")
}

// ColumnDesc describes one column of a schema.
type ColumnDesc struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema []ColumnDesc

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndexOf is IndexOf that panics on a missing column; plan-building
// helper where a miss is a programming error.
func (s Schema) MustIndexOf(name string) int {
	i := s.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("types: schema has no column %q", name))
	}
	return i
}

// Kinds returns the kinds of all columns in order.
func (s Schema) Kinds() []Kind {
	ks := make([]Kind, len(s))
	for i, c := range s {
		ks[i] = c.Kind
	}
	return ks
}

// epoch is the zero point of the Date kind.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// MkDate converts a calendar date into the Date day-count representation.
func MkDate(year, month, day int) int32 {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return int32(t.Sub(epoch).Hours() / 24)
}

// DateString renders a Date day count as YYYY-MM-DD.
func DateString(d int32) string {
	t := epoch.AddDate(0, 0, int(d))
	return t.Format("2006-01-02")
}

// ParseDate parses YYYY-MM-DD into the Date representation.
func ParseDate(s string) (int32, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("types: bad date %q: %w", s, err)
	}
	return int32(t.Sub(epoch).Hours() / 24), nil
}

// MustParseDate is ParseDate that panics; used in hand-built plans where the
// literal is a compile-time constant.
func MustParseDate(s string) int32 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}
