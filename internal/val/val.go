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
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unsafe"

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
// The layout is three words (24 bytes; 16 on 32-bit): a payload
// pointer, a word of numeric payload, and the kind tag. Values are the
// bulk of resident memory — every tuple field, PEL stack slot and table
// key — so the slot is kept as narrow as Go allows. A KStr or KID
// payload is its bytes' address in ptr and their count in num, read
// back as a string by str; every other kind keeps its bit pattern in
// num and a nil ptr, so the zero Value is Null. Identifiers do not get
// an inline [5]uint32 — a KID holds its 20 big-endian payload bytes as
// a string, interned through the global symbol table. IDs are the most
// duplicated payload a Chord deployment holds — every node's identifier
// recurs in finger and successor rows across the ring — so all copies
// of one identifier collapse into one 20-byte allocation. Big-endian
// byte order makes lexicographic comparison of the payload coincide
// with numeric ID order, so comparisons never decode. Ring arithmetic
// (Add, Sub, Shl, Shr, Neg and In) reads the payload as three machine
// words and renders each result once (see ring); package id is the
// reference semantics it is tested against.
//
// Values are not comparable with ==: two equal strings at different
// addresses would compare unequal. Use Same, Equal or Cmp, which read
// the payload bytes. The ptr is an unsafe.Pointer rather than a *byte
// so that reflect.DeepEqual compares it by address, which can only
// report equal values as different, never different values (Str("ab"),
// Str("ac")) as equal by their first byte.
type Value struct {
	_    [0]func()      // no ==: it would compare payload addresses
	ptr  unsafe.Pointer // KStr/KID: the payload bytes; nil for other kinds
	num  uint64         // KStr/KID: the payload length; else bool/int/float/time bits
	kind Kind
}

// strValue wraps s as a KStr or KID payload.
func strValue(k Kind, s string) Value {
	return Value{kind: k, ptr: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s))}
}

// str returns the payload of a KStr or KID value. It must not be called
// on other kinds, whose num is not a length.
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), int(v.num)) }

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
func Str(s string) Value { return strValue(KStr, s) }

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
	return strValue(KID, string(b[:]))
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
		return v.num != 0
	case KID:
		return v.str() != idZeroStr
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
		n, _ := strconv.ParseInt(v.str(), 10, 64)
		return n
	case KID:
		return int64(id.FromString(v.str()).Uint64())
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
		f, _ := strconv.ParseFloat(v.str(), 64)
		return f
	case KID:
		return float64(id.FromString(v.str()).Uint64())
	}
	return 0
}

// AsStr returns the string payload, or the rendering for other kinds.
func (v Value) AsStr() string {
	if v.kind == KStr {
		return v.str()
	}
	return v.String()
}

// AsID coerces v to a ring identifier: IDs pass through, integers embed
// (negative values wrap mod 2^160), hex strings parse, everything else
// is zero.
func (v Value) AsID() id.ID {
	switch v.kind {
	case KID:
		return id.FromString(v.str())
	case KInt, KBool:
		return id.FromInt64(int64(v.num))
	case KFloat, KTime:
		return id.FromInt64(int64(math.Float64frombits(v.num)))
	case KStr:
		x, err := id.Parse(v.str())
		if err != nil {
			return id.Zero
		}
		return x
	}
	return id.Zero
}

// Equal reports whether two values compare equal under Cmp — numeric
// kinds by numeric value, so Int(3).Equal(Float(3.0)).
func (v Value) Equal(o Value) bool { return v.Cmp(o) == 0 }

// Same reports whether a and b are identical in kind and payload: any
// pure computation gives the same result on either. Equal is not that
// (Int(3) equals Float(3.0), yet 3/2 != 3.0/2).
func Same(a, b Value) bool {
	if a.kind != b.kind || a.num != b.num {
		return false
	}
	return a.kind != KStr && a.kind != KID || a.str() == b.str()
}

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
	if v.kind == KNull {
		return 0
	}
	// Strings, and IDs as big-endian payload bytes: lexicographic order
	// is numeric order.
	return strings.Compare(v.str(), o.str())
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
		return v.str()
	case KID:
		return "0x" + id.FromString(v.str()).Short()
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
		return v.ring().add(o.ring()).value()
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
		return v.ring().sub(o.ring()).value()
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
	if v.kind != KID {
		iv := v.AsInt()
		if n < 63 && iv >= 0 && iv < (1<<(62-n)) {
			return Int(iv << n)
		}
	}
	return v.ring().shl(n).value()
}

// Shr returns v >> o.
func Shr(v, o Value) Value {
	n := uint(o.AsInt())
	if v.kind == KID {
		return v.ring().shr(n).value()
	}
	return Int(v.AsInt() >> n)
}

// Neg returns -v.
func Neg(v Value) Value {
	switch v.kind {
	case KFloat, KTime:
		return Float(-v.AsFloat())
	case KID:
		return ring{}.sub(v.ring()).value()
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
	x, a, b := k.ring(), lo.ring(), hi.ring()
	if loClosed && x == a || hiClosed && x == b {
		return true
	}
	return x.inOpen(a, b)
}

// codec -----------------------------------------------------------------
//
// One encoding serves the wire (tuple.Marshal) and table and index keys
// (tuple.AppendKey): a kind byte, then nothing for null, one 0/1 byte
// for bool, a zigzag uvarint for int, the 8 IEEE-754 bytes big-endian
// for float and time, uvarint length | bytes for str, 20 raw big-endian
// bytes for id. Each value is self-delimiting, so distinct values never
// encode to equal bytes or to a prefix of one another and concatenated
// fields form an injective key. Decoding is canonical — a bool byte
// above 1 or a uvarint with a redundant trailing group is an error — so
// whatever decodes re-encodes to the bytes consumed.

// AppendBinary appends the canonical binary encoding of v to dst.
func (v Value) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KNull:
	case KBool:
		dst = append(dst, byte(v.num&1))
	case KInt:
		dst = binary.AppendUvarint(dst, zigzag(v.num))
	case KFloat, KTime:
		dst = binary.BigEndian.AppendUint64(dst, v.num)
	case KStr:
		dst = binary.AppendUvarint(dst, v.num)
		dst = append(dst, v.str()...)
	case KID:
		dst = append(dst, v.str()...)
	}
	return dst
}

// zigzag folds an int64 bit pattern so small negatives stay short.
func zigzag(n uint64) uint64 { return n<<1 ^ uint64(int64(n)>>63) }

// UvarintLen returns the number of bytes binary.AppendUvarint writes for x.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// EncodedSize returns the number of bytes AppendBinary will produce.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KBool:
		return 2
	case KInt:
		return 1 + UvarintLen(zigzag(v.num))
	case KFloat, KTime:
		return 9
	case KStr:
		return 1 + UvarintLen(v.num) + int(v.num)
	case KID:
		return 1 + id.Bytes
	}
	return 1
}

// Uvarint decodes one canonical uvarint from the front of b, returning
// the value and the bytes consumed. Truncation, overflow of 64 bits and
// a redundant final zero group are errors: the wire has no checksum, so
// decoders reject what their encoder cannot have written.
func Uvarint(b []byte) (uint64, int, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1, nil
	}
	x, n := binary.Uvarint(b)
	if n <= 0 || b[n-1] == 0 {
		return 0, 0, errVarint
	}
	return x, n, nil
}

var errVarint = errors.New("val: truncated, overflowing or non-minimal varint")

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
		if len(rest) < 1 || rest[0] > 1 {
			return Null, 0, fmt.Errorf("val: truncated or malformed bool")
		}
		return Bool(rest[0] != 0), 2, nil
	case KInt:
		u, n, err := Uvarint(rest)
		if err != nil {
			return Null, 0, err
		}
		return Int(int64(u>>1) ^ -int64(u&1)), 1 + n, nil
	case KFloat, KTime:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("val: truncated %v", k)
		}
		return Value{kind: k, num: binary.BigEndian.Uint64(rest)}, 9, nil
	case KStr:
		u, n, err := Uvarint(rest)
		if err != nil {
			return Null, 0, err
		}
		if u > uint64(len(rest)-n) { // in uint64: a hostile length must not wrap an int
			return Null, 0, fmt.Errorf("val: string length %d exceeds the %d bytes left", u, len(rest)-n)
		}
		end := n + int(u)
		// Decoded strings intern: the wire re-delivers the same
		// addresses and identifiers endlessly, and rows built from
		// received tuples would otherwise each hold a private copy.
		return Str(InternBytes(rest[n:end])), 1 + end, nil
	case KID:
		if len(rest) < id.Bytes {
			return Null, 0, fmt.Errorf("val: truncated id")
		}
		// The payload bytes are already canonical big-endian: intern them
		// directly, with no decode/re-encode round trip.
		return strValue(KID, InternBytes(rest[:id.Bytes])), 1 + id.Bytes, nil
	}
	return Null, 0, fmt.Errorf("val: unknown kind %d", b[0])
}
