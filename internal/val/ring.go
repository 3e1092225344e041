package val

import (
	"encoding/binary"
	"math"
	"math/bits"

	"p2/internal/id"
)

// ring is a point on the 2^160 identifier ring as three machine words
// read straight off a KID's big-endian payload: hi holds the top 32 bits
// (the 32 above them stay zero), mid and lo the two 64-bit words below.
// Add, Sub, Shl, Shr, Neg and In compute on it and render each result
// once. Package id is the reference semantics it is tested against.
type ring struct{ hi, mid, lo uint64 }

const hiMask = 1<<32 - 1

// ringOf reads a 20-byte KID payload. The byte-wise loads compile to
// one load and a byte swap per word.
func ringOf(s string) ring {
	_ = s[id.Bytes-1]
	return ring{
		hi: uint64(s[0])<<24 | uint64(s[1])<<16 | uint64(s[2])<<8 | uint64(s[3]),
		mid: uint64(s[4])<<56 | uint64(s[5])<<48 | uint64(s[6])<<40 | uint64(s[7])<<32 |
			uint64(s[8])<<24 | uint64(s[9])<<16 | uint64(s[10])<<8 | uint64(s[11]),
		lo: uint64(s[12])<<56 | uint64(s[13])<<48 | uint64(s[14])<<40 | uint64(s[15])<<32 |
			uint64(s[16])<<24 | uint64(s[17])<<16 | uint64(s[18])<<8 | uint64(s[19]),
	}
}

// ringInt embeds n sign-extended mod 2^160, as id.FromInt64 does.
func ringInt(n int64) ring {
	ext := uint64(n >> 63)
	return ring{ext & hiMask, ext, uint64(n)}
}

// ring embeds v exactly as AsID does: IDs are their payload, ints and
// bools sign-extend, floats and times truncate, hex strings parse, and
// everything else is zero.
func (v Value) ring() ring {
	switch v.kind {
	case KID:
		return ringOf(v.str())
	case KInt, KBool:
		return ringInt(int64(v.num))
	case KFloat, KTime:
		return ringInt(int64(math.Float64frombits(v.num)))
	case KStr:
		x, err := id.Parse(v.str())
		if err != nil {
			return ring{}
		}
		return ring{uint64(x[0]), uint64(x[1])<<32 | uint64(x[2]), uint64(x[3])<<32 | uint64(x[4])}
	}
	return ring{}
}

// value renders x as a KID: one fresh, un-interned 20-byte string, as
// MakeID makes.
func (x ring) value() Value {
	var b [id.Bytes]byte
	binary.BigEndian.PutUint32(b[0:], uint32(x.hi))
	binary.BigEndian.PutUint64(b[4:], x.mid)
	binary.BigEndian.PutUint64(b[12:], x.lo)
	return strValue(KID, string(b[:]))
}

func (x ring) add(y ring) ring {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	mid, c := bits.Add64(x.mid, y.mid, c)
	return ring{(x.hi + y.hi + c) & hiMask, mid, lo}
}

func (x ring) sub(y ring) ring {
	lo, b := bits.Sub64(x.lo, y.lo, 0)
	mid, b := bits.Sub64(x.mid, y.mid, b)
	return ring{(x.hi - y.hi - b) & hiMask, mid, lo}
}

// shl shifts left mod 2^160. Go defines a shift by 64 or more as zero,
// so each case needs no guard for the word that shifts out entirely.
func (x ring) shl(n uint) ring {
	switch {
	case n >= id.Bits:
		return ring{}
	case n >= 128:
		return ring{(x.lo << (n - 128)) & hiMask, 0, 0}
	case n >= 64:
		return ring{(x.mid<<(n-64) | x.lo>>(128-n)) & hiMask, x.lo << (n - 64), 0}
	}
	return ring{(x.hi<<n | x.mid>>(64-n)) & hiMask, x.mid<<n | x.lo>>(64-n), x.lo << n}
}

// shr shifts right; the bits above hi's 32 are zero, so nothing needs
// masking.
func (x ring) shr(n uint) ring {
	switch {
	case n >= id.Bits:
		return ring{}
	case n >= 128:
		return ring{0, 0, x.hi >> (n - 128)}
	case n >= 64:
		return ring{0, x.hi >> (n - 64), x.mid>>(n-64) | x.hi<<(128-n)}
	}
	return ring{x.hi >> n, x.mid>>n | x.hi<<(64-n), x.lo>>n | x.mid<<(64-n)}
}

func (x ring) less(y ring) bool {
	if x.hi != y.hi {
		return x.hi < y.hi
	}
	if x.mid != y.mid {
		return x.mid < y.mid
	}
	return x.lo < y.lo
}

// inOpen reports whether x lies in the open circular interval (a, b);
// (a, a) is the whole ring but a, as id.BetweenOO has it.
func (x ring) inOpen(a, b ring) bool {
	switch {
	case a.less(b):
		return a.less(x) && x.less(b)
	case b.less(a):
		return a.less(x) || x.less(b)
	}
	return x != a
}
