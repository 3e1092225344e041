// Package id implements 160-bit identifiers on the Chord ring.
//
// Identifiers are unsigned 160-bit integers with arithmetic performed
// modulo 2^160. The package provides the operations OverLog programs
// need: addition, subtraction, left shift (for finger targets N + 2^i),
// total ordering, and circular-interval membership with every
// open/closed bound combination, which is how Chord expresses
// "K in (N, S]" on the identifier circle.
//
// ID is the public p2.ID and what the Chord oracle (chordref) and the
// scenario checks compute with. The runtime's own ring arithmetic lives
// in package val, which works on a value's 20-byte payload directly;
// this package is the reference semantics val is tested against.
package id

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
)

// Bits is the identifier width in bits.
const Bits = 160

// Bytes is the identifier width in bytes.
const Bytes = Bits / 8

// ID is a 160-bit unsigned integer, stored big-endian: word 0 holds the
// most significant 32 bits. Arithmetic wraps modulo 2^160.
type ID [5]uint32

// Zero is the additive identity.
var Zero ID

// One is the multiplicative identity.
var One = ID{0, 0, 0, 0, 1}

// FromBytes builds an ID from up to 20 big-endian bytes. Shorter input is
// zero-extended on the left; longer input keeps the low-order 20 bytes.
func FromBytes(b []byte) ID {
	if len(b) > Bytes {
		b = b[len(b)-Bytes:]
	}
	var buf [Bytes]byte
	copy(buf[Bytes-len(b):], b)
	var x ID
	for i := 0; i < 5; i++ {
		x[i] = binary.BigEndian.Uint32(buf[i*4 : i*4+4])
	}
	return x
}

// FromUint64 builds an ID from a 64-bit unsigned integer.
func FromUint64(v uint64) ID {
	return ID{0, 0, 0, uint32(v >> 32), uint32(v)}
}

// FromInt64 builds an ID from a signed 64-bit integer. Negative values
// wrap modulo 2^160 (two's-complement sign extension).
func FromInt64(v int64) ID {
	if v >= 0 {
		return FromUint64(uint64(v))
	}
	u := uint64(v)
	return ID{^uint32(0), ^uint32(0), ^uint32(0), uint32(u >> 32), uint32(u)}
}

// Hash returns the SHA-1 of s as an ID, the way Chord derives node
// identifiers from addresses and keys from names.
func Hash(s string) ID {
	sum := sha1.Sum([]byte(s))
	return FromBytes(sum[:])
}

// Random returns a uniformly random ID drawn from r.
func Random(r *rand.Rand) ID {
	var x ID
	for i := range x {
		x[i] = r.Uint32()
	}
	return x
}

// ToBytes returns the big-endian 20-byte representation.
func (x ID) ToBytes() []byte {
	b := make([]byte, Bytes)
	for i := 0; i < 5; i++ {
		binary.BigEndian.PutUint32(b[i*4:i*4+4], x[i])
	}
	return b
}

// PutBytes writes the big-endian representation into b — the
// allocation-free form of ToBytes for callers rendering into a stack
// buffer.
func (x ID) PutBytes(b *[Bytes]byte) {
	for i := 0; i < 5; i++ {
		binary.BigEndian.PutUint32(b[i*4:i*4+4], x[i])
	}
}

// FromString is FromBytes over string storage, without the []byte
// conversion allocation — for value payloads that keep IDs rendered as
// 20-byte strings.
func FromString(s string) ID {
	if len(s) != Bytes {
		return FromBytes([]byte(s))
	}
	_ = s[Bytes-1]
	var x ID
	for i := 0; i < 5; i++ {
		x[i] = uint32(s[i*4])<<24 | uint32(s[i*4+1])<<16 |
			uint32(s[i*4+2])<<8 | uint32(s[i*4+3])
	}
	return x
}

// Uint64 returns the low 64 bits.
func (x ID) Uint64() uint64 {
	return uint64(x[3])<<32 | uint64(x[4])
}

// Cmp compares x and y as unsigned integers: -1 if x < y, 0 if equal,
// +1 if x > y.
func (x ID) Cmp(y ID) int {
	for i := 0; i < 5; i++ {
		if x[i] < y[i] {
			return -1
		}
		if x[i] > y[i] {
			return 1
		}
	}
	return 0
}

// Less reports whether x < y as unsigned integers.
func (x ID) Less(y ID) bool { return x.Cmp(y) < 0 }

// Add returns x + y mod 2^160.
func (x ID) Add(y ID) ID {
	var z ID
	var carry uint64
	for i := 4; i >= 0; i-- {
		s := uint64(x[i]) + uint64(y[i]) + carry
		z[i] = uint32(s)
		carry = s >> 32
	}
	return z
}

// Sub returns x - y mod 2^160.
func (x ID) Sub(y ID) ID {
	var z ID
	var borrow uint64
	for i := 4; i >= 0; i-- {
		d := uint64(x[i]) - uint64(y[i]) - borrow
		z[i] = uint32(d)
		borrow = (d >> 32) & 1
	}
	return z
}

// Shl returns x << n mod 2^160. Shifting by 160 or more yields zero.
func (x ID) Shl(n uint) ID {
	if n >= Bits {
		return Zero
	}
	wordShift := int(n / 32)
	bitShift := n % 32
	var z ID
	for i := 0; i < 5; i++ {
		src := i + wordShift
		if src > 4 {
			continue
		}
		z[i] = x[src] << bitShift
		if bitShift > 0 && src+1 <= 4 {
			z[i] |= x[src+1] >> (32 - bitShift)
		}
	}
	return z
}

// Shr returns x >> n. Shifting by 160 or more yields zero.
func (x ID) Shr(n uint) ID {
	if n >= Bits {
		return Zero
	}
	wordShift := int(n / 32)
	bitShift := n % 32
	var z ID
	for i := 4; i >= 0; i-- {
		src := i - wordShift
		if src < 0 {
			continue
		}
		z[i] = x[src] >> bitShift
		if bitShift > 0 && src-1 >= 0 {
			z[i] |= x[src-1] << (32 - bitShift)
		}
	}
	return z
}

// Pow2 returns 2^n mod 2^160 (zero when n >= 160).
func Pow2(n uint) ID { return One.Shl(n) }

// Dist returns the clockwise distance from x to y on the ring:
// (y - x) mod 2^160.
func (x ID) Dist(y ID) ID { return y.Sub(x) }

// BetweenOO reports whether k lies in the open circular interval (a, b).
// When a == b the interval is the whole ring minus {a}, matching Chord
// convention (a single node's (n, n) interval covers everything else).
func BetweenOO(k, a, b ID) bool {
	if a == b {
		return k != a
	}
	// Clockwise distances from a: k is inside iff dist(a,k) < dist(a,b),
	// excluding k == a.
	if k == a {
		return false
	}
	return a.Dist(k).Less(a.Dist(b))
}

// BetweenOC reports whether k lies in the half-open interval (a, b].
func BetweenOC(k, a, b ID) bool {
	if a == b {
		return true // (a, a] wraps the whole ring including a
	}
	if k == b {
		return true
	}
	return BetweenOO(k, a, b)
}

// BetweenCO reports whether k lies in the half-open interval [a, b).
func BetweenCO(k, a, b ID) bool {
	if a == b {
		return true
	}
	if k == a {
		return true
	}
	return BetweenOO(k, a, b)
}

// BetweenCC reports whether k lies in the closed interval [a, b].
func BetweenCC(k, a, b ID) bool {
	if k == a || k == b {
		return true
	}
	return BetweenOO(k, a, b)
}

// String renders the ID as 40 lowercase hex digits.
func (x ID) String() string {
	return hex.EncodeToString(x.ToBytes())
}

// Short renders the first 8 hex digits, handy in logs.
func (x ID) Short() string {
	return x.String()[:8]
}

// Parse decodes a hex string (with or without leading zeros) into an ID.
func Parse(s string) (ID, error) {
	if len(s) == 0 || len(s) > 2*Bytes {
		return Zero, fmt.Errorf("id: cannot parse %q: length %d", s, len(s))
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Zero, fmt.Errorf("id: cannot parse %q: %v", s, err)
	}
	return FromBytes(b), nil
}
