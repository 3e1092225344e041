// Package val implements P2's concrete type system.
//
// A Value is a small immutable variant record used for every item of
// information that moves through the system: tuple fields, PEL operands,
// table keys. The kinds mirror the paper's description ("strings,
// integers, timestamps, and large unique identifiers") plus booleans and
// floats, which the planner needs for predicates and utility arithmetic.
//
// Values are totally ordered: first by kind, then by payload. This gives
// tables a deterministic ordering for primary keys and lets aggregates
// like min<> and max<> operate over any column.
package val

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"p2/internal/id"
)

// Kind enumerates the concrete types a Value can carry.
type Kind uint8

// The value kinds, in comparison-rank order.
const (
	KNull Kind = iota
	KBool
	KInt // signed 64-bit integer
	KFloat
	KStr
	KID   // 160-bit ring identifier
	KTime // seconds since epoch (virtual or wall)
)

var kindNames = [...]string{"null", "bool", "int", "float", "str", "id", "time"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is an immutable variant. The zero Value is Null.
//
// The layout is 32 bytes: a string header, a word of numeric payload,
// and the kind tag. Identifiers do not get an inline [5]uint32 — a KID
// stores its 20 big-endian payload bytes in str, interned through the
// global symbol table. Values are the bulk of resident memory (every
// tuple field, PEL stack slot, and table key), and IDs are the most
// duplicated payload a Chord deployment holds — every node's
// identifier recurs in finger and successor rows across the ring — so
// this both shrinks the slot by a third versus an inline ID and
// collapses all copies of one identifier into one 20-byte allocation.
// Big-endian byte order makes lexicographic comparison of the payload
// strings coincide with numeric ID order, so comparisons never decode.
type Value struct {
	str  string // KStr payload; KID payload as 20 big-endian bytes (interned)
	num  uint64 // bool/int/float/time payload (bit pattern)
	kind Kind
}

// Null is the null value.
var Null = Value{}

// Bool wraps a boolean.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KBool, num: n}
}

// Int wraps a signed integer.
func Int(v int64) Value { return Value{kind: KInt, num: uint64(v)} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KFloat, num: math.Float64bits(v)} }

// Str wraps a string.
func Str(s string) Value { return Value{kind: KStr, str: s} }

// MakeID wraps a 160-bit identifier. The payload is rendered to its
// canonical 20 bytes as a fresh short-lived string — deliberately NOT
// interned: MakeID sits under the PEL VM's ID arithmetic (ring
// distances, finger targets), whose results are mostly compared and
// discarded, so interning them pays a shard probe per operation and
// floods the interner with unbounded-cardinality distances, flushing
// the durable entries it exists to share. IDs that actually persist
// are interned where they become durable instead: wire decode
// (DecodeValue) and index-key render (table side).
func MakeID(x id.ID) Value {
	var b [id.Bytes]byte
	x.PutBytes(&b)
	return Value{kind: KID, str: string(b[:])}
}

// idZeroStr is the KID payload of the zero identifier.
var idZeroStr = string(make([]byte, id.Bytes))

// Time wraps a timestamp in seconds.
func Time(sec float64) Value { return Value{kind: KTime, num: math.Float64bits(sec)} }

// Kind returns the value's kind tag.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KNull }

// AsBool returns the boolean payload; non-bool values follow truthiness
// (null and zero are false, everything else true).
func (v Value) AsBool() bool {
	switch v.kind {
	case KNull:
		return false
	case KBool, KInt:
		return v.num != 0
	case KFloat, KTime:
		return math.Float64frombits(v.num) != 0
	case KStr:
		return v.str != ""
	case KID:
		return v.str != idZeroStr
	}
	return false
}

// AsInt coerces v to a signed integer (floors floats/times, parses
// digit strings, truncates IDs to the low 64 bits).
func (v Value) AsInt() int64 {
	switch v.kind {
	case KBool:
		return int64(v.num)
	case KInt:
		return int64(v.num)
	case KFloat, KTime:
		return int64(math.Float64frombits(v.num))
	case KStr:
		n, _ := strconv.ParseInt(v.str, 10, 64)
		return n
	case KID:
		return int64(id.FromString(v.str).Uint64())
	}
	return 0
}

// AsFloat coerces v to float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KBool, KInt:
		return float64(int64(v.num))
	case KFloat, KTime:
		return math.Float64frombits(v.num)
	case KStr:
		f, _ := strconv.ParseFloat(v.str, 64)
		return f
	case KID:
		return float64(id.FromString(v.str).Uint64())
	}
	return 0
}

// AsStr returns the string payload, or the rendering for other kinds.
func (v Value) AsStr() string {
	if v.kind == KStr {
		return v.str
	}
	return v.String()
}

// AsID coerces v to a ring identifier: IDs pass through, integers embed
// (negative values wrap mod 2^160), hex strings parse, everything else
// is zero.
func (v Value) AsID() id.ID {
	switch v.kind {
	case KID:
		return id.FromString(v.str)
	case KInt, KBool:
		return id.FromInt64(int64(v.num))
	case KFloat, KTime:
		return id.FromInt64(int64(math.Float64frombits(v.num)))
	case KStr:
		x, err := id.Parse(v.str)
		if err != nil {
			return id.Zero
		}
		return x
	}
	return id.Zero
}

// AsTime returns the timestamp payload in seconds.
func (v Value) AsTime() float64 { return v.AsFloat() }

// Equal reports whether two values compare equal under Cmp — numeric
// kinds by numeric value, so Int(3).Equal(Float(3.0)).
func (v Value) Equal(o Value) bool { return v.Cmp(o) == 0 }

// Same reports whether a and b are identical in kind and payload: any
// pure computation gives the same result on either. Equal is not that
// (Int(3) equals Float(3.0), yet 3/2 != 3.0/2).
func Same(a, b Value) bool { return a.kind == b.kind && a.num == b.num && a.str == b.str }

// Cmp totally orders values: by kind rank first, then payload.
// Numeric kinds (bool, int, float, time) compare against each other by
// numeric value so that Int(3) == Float(3.0); this is what joins on key
// columns expect.
func (v Value) Cmp(o Value) int {
	switch {
	case v.kind == KInt && o.kind == KInt:
		return cmp.Compare(int64(v.num), int64(o.num)) // exact: floats would round large int64s
	case v.numericRank() && o.numericRank():
		return cmp.Compare(v.AsFloat(), o.AsFloat())
	case v.kind != o.kind:
		return cmp.Compare(v.kind, o.kind)
	}
	// Strings, and IDs as big-endian payload bytes: lexicographic order
	// is numeric order. Null equals Null.
	return strings.Compare(v.str, o.str)
}

func (v Value) numericRank() bool {
	switch v.kind {
	case KBool, KInt, KFloat, KTime:
		return true
	}
	return false
}

// String renders the value for logs and the olgc inspector.
func (v Value) String() string {
	switch v.kind {
	case KNull:
		return "null"
	case KBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KStr:
		return v.str
	case KID:
		return "0x" + id.FromString(v.str).Short()
	case KTime:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'f', 3, 64) + "s"
	}
	return "?"
}

// arithmetic -----------------------------------------------------------

// Add returns v + o with coercion: ID dominates (ring addition), then
// time, then float, then int. Strings concatenate.
func Add(v, o Value) Value {
	switch {
	case v.kind == KStr || o.kind == KStr:
		return Str(v.AsStr() + o.AsStr())
	case v.kind == KID || o.kind == KID:
		return MakeID(v.AsID().Add(o.AsID()))
	case v.kind == KTime || o.kind == KTime:
		return Time(v.AsFloat() + o.AsFloat())
	case v.kind == KFloat || o.kind == KFloat:
		return Float(v.AsFloat() + o.AsFloat())
	default:
		return Int(v.AsInt() + o.AsInt())
	}
}

// Sub returns v - o. Subtracting two timestamps yields a float duration
// in seconds, so OverLog's "f_now() - T > 20" reads naturally.
func Sub(v, o Value) Value {
	switch {
	case v.kind == KID || o.kind == KID:
		return MakeID(v.AsID().Sub(o.AsID()))
	case v.kind == KTime && o.kind == KTime:
		return Float(v.AsFloat() - o.AsFloat())
	case v.kind == KTime || o.kind == KTime:
		return Time(v.AsFloat() - o.AsFloat())
	case v.kind == KFloat || o.kind == KFloat:
		return Float(v.AsFloat() - o.AsFloat())
	default:
		return Int(v.AsInt() - o.AsInt())
	}
}

// Mul returns v * o (float if either side is float, else int).
func Mul(v, o Value) Value {
	if v.kind == KFloat || o.kind == KFloat || v.kind == KTime || o.kind == KTime {
		return Float(v.AsFloat() * o.AsFloat())
	}
	return Int(v.AsInt() * o.AsInt())
}

// Div returns v / o. Integer division by zero yields Null rather than
// panicking: a rule body that divides by zero simply fails to derive.
func Div(v, o Value) Value {
	if v.kind == KFloat || o.kind == KFloat || v.kind == KTime || o.kind == KTime {
		d := o.AsFloat()
		if d == 0 {
			return Null
		}
		return Float(v.AsFloat() / d)
	}
	d := o.AsInt()
	if d == 0 {
		return Null
	}
	return Int(v.AsInt() / d)
}

// Mod returns v % o on integers (Null on zero divisor).
func Mod(v, o Value) Value {
	d := o.AsInt()
	if d == 0 {
		return Null
	}
	return Int(v.AsInt() % d)
}

// Shl returns v << o; an ID on the left shifts on the ring, integers
// shift as int64 promoted through ID when they would overflow.
func Shl(v, o Value) Value {
	n := uint(o.AsInt())
	if v.kind == KID {
		return MakeID(id.FromString(v.str).Shl(n))
	}
	iv := v.AsInt()
	if n < 63 && iv >= 0 && iv < (1<<(62-n)) {
		return Int(iv << n)
	}
	return MakeID(v.AsID().Shl(n))
}

// Shr returns v >> o.
func Shr(v, o Value) Value {
	n := uint(o.AsInt())
	if v.kind == KID {
		return MakeID(id.FromString(v.str).Shr(n))
	}
	return Int(v.AsInt() >> n)
}

// Neg returns -v.
func Neg(v Value) Value {
	switch v.kind {
	case KFloat, KTime:
		return Float(-v.AsFloat())
	case KID:
		return MakeID(id.Zero.Sub(v.AsID()))
	default:
		return Int(-v.AsInt())
	}
}

// In evaluates circular-interval membership "k in <lo,hi>" with the
// given bound closedness. If any operand is an ID the test is performed
// on the 2^160 ring (integers embed); otherwise operands embed through
// their integer value, which for ordinary positive ints matches linear
// interval logic whenever lo <= hi.
func In(k, lo, hi Value, loClosed, hiClosed bool) bool {
	kk, ll, hh := k.AsID(), lo.AsID(), hi.AsID()
	switch {
	case loClosed && hiClosed:
		return id.BetweenCC(kk, ll, hh)
	case loClosed:
		return id.BetweenCO(kk, ll, hh)
	case hiClosed:
		return id.BetweenOC(kk, ll, hh)
	default:
		return id.BetweenOO(kk, ll, hh)
	}
}

// codec -----------------------------------------------------------------

// AppendBinary appends the canonical binary encoding of v to dst:
// a kind byte followed by a fixed or length-prefixed payload.
func (v Value) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KNull:
	case KBool:
		dst = append(dst, byte(v.num&1))
	case KInt, KFloat, KTime:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v.num)
		dst = append(dst, b[:]...)
	case KStr:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(len(v.str)))
		dst = append(dst, b[:]...)
		dst = append(dst, v.str...)
	case KID:
		dst = append(dst, v.str...)
	}
	return dst
}

// EncodedSize returns the number of bytes AppendBinary will produce.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KNull:
		return 1
	case KBool:
		return 2
	case KInt, KFloat, KTime:
		return 9
	case KStr:
		return 5 + len(v.str)
	case KID:
		return 1 + id.Bytes
	}
	return 1
}

// DecodeValue decodes one value from b, returning the value and the
// number of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("val: empty buffer")
	}
	k := Kind(b[0])
	rest := b[1:]
	switch k {
	case KNull:
		return Null, 1, nil
	case KBool:
		if len(rest) < 1 {
			return Null, 0, fmt.Errorf("val: truncated bool")
		}
		return Bool(rest[0] != 0), 2, nil
	case KInt, KFloat, KTime:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("val: truncated %v", k)
		}
		n := binary.BigEndian.Uint64(rest)
		return Value{kind: k, num: n}, 9, nil
	case KStr:
		if len(rest) < 4 {
			return Null, 0, fmt.Errorf("val: truncated string header")
		}
		n := int(binary.BigEndian.Uint32(rest))
		if len(rest) < 4+n {
			return Null, 0, fmt.Errorf("val: truncated string body")
		}
		// Decoded strings intern: the wire re-delivers the same
		// addresses and identifiers endlessly, and rows built from
		// received tuples would otherwise each hold a private copy.
		return Str(InternBytes(rest[4 : 4+n])), 5 + n, nil
	case KID:
		if len(rest) < id.Bytes {
			return Null, 0, fmt.Errorf("val: truncated id")
		}
		// The payload bytes are already canonical big-endian: intern them
		// directly, with no decode/re-encode round trip.
		return Value{kind: KID, str: InternBytes(rest[:id.Bytes])}, 1 + id.Bytes, nil
	}
	return Null, 0, fmt.Errorf("val: unknown kind %d", b[0])
}
