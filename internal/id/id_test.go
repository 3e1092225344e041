package id

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromUint64RoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 42, 1 << 31, 1<<63 + 12345, ^uint64(0)}
	for _, v := range cases {
		if got := FromUint64(v).Uint64(); got != v {
			t.Errorf("FromUint64(%d).Uint64() = %d", v, got)
		}
	}
}

func TestFromBytesRoundTrip(t *testing.T) {
	x := Hash("node:10.0.0.1:1234")
	y := FromBytes(x.ToBytes())
	if x != y {
		t.Fatalf("round trip mismatch: %v vs %v", x, y)
	}
}

func TestFromBytesShortAndLong(t *testing.T) {
	if got := FromBytes([]byte{0x01, 0x02}); got.Uint64() != 0x0102 {
		t.Errorf("short input = %v", got)
	}
	long := make([]byte, 25)
	long[24] = 7 // low byte
	if got := FromBytes(long); got.Uint64() != 7 {
		t.Errorf("long input = %v", got)
	}
}

func TestFromInt64Negative(t *testing.T) {
	// -1 mod 2^160 is all ones.
	m1 := FromInt64(-1)
	if m1.Add(One) != Zero {
		t.Errorf("FromInt64(-1) + 1 = %v, want 0", m1.Add(One))
	}
	if FromInt64(5) != FromUint64(5) {
		t.Error("FromInt64(5) != FromUint64(5)")
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b [5]uint32) bool {
		x, y := ID(a), ID(b)
		return x.Add(y).Sub(y) == x && x.Sub(y).Add(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutativeAssociative(t *testing.T) {
	comm := func(a, b [5]uint32) bool {
		x, y := ID(a), ID(b)
		return x.Add(y) == y.Add(x)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c [5]uint32) bool {
		x, y, z := ID(a), ID(b), ID(c)
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCarryPropagation(t *testing.T) {
	allOnes := ID{^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)}
	if got := allOnes.Add(One); got != Zero {
		t.Errorf("(2^160-1)+1 = %v, want 0", got)
	}
	if got := Zero.Sub(One); got != allOnes {
		t.Errorf("0-1 = %v, want all ones", got)
	}
}

func TestShl(t *testing.T) {
	for i := uint(0); i < 64; i++ {
		want := FromUint64(1 << i)
		if got := One.Shl(i); got != want {
			t.Fatalf("1<<%d = %v, want %v", i, got, want)
		}
	}
	if Pow2(159).Shl(1) != Zero {
		t.Error("2^159 << 1 should overflow to zero")
	}
	if One.Shl(160) != Zero {
		t.Error("shift by 160 should be zero")
	}
	// Cross-word shift.
	if got, want := One.Shl(33), FromUint64(1<<33); got != want {
		t.Errorf("1<<33 = %v, want %v", got, want)
	}
}

func TestShrInverseOfShl(t *testing.T) {
	f := func(a [5]uint32, nRaw uint8) bool {
		n := uint(nRaw) % 160
		x := ID(a)
		// Shifting left then right loses the high n bits; verify the
		// low bits survive by masking.
		back := x.Shl(n).Shr(n)
		mask := Zero.Sub(One).Shr(n) // 2^(160-n) - 1
		expect := and(x, mask)
		return back == expect
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func and(a, b ID) ID {
	var z ID
	for i := range z {
		z[i] = a[i] & b[i]
	}
	return z
}

func TestCmpMatchesSubSign(t *testing.T) {
	f := func(a, b [5]uint32) bool {
		x, y := ID(a), ID(b)
		c := x.Cmp(y)
		switch {
		case x == y:
			return c == 0
		case c == -1:
			return y.Cmp(x) == 1
		case c == 1:
			return y.Cmp(x) == -1
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetweenBasics(t *testing.T) {
	a, b, k := FromUint64(10), FromUint64(20), FromUint64(15)
	if !BetweenOO(k, a, b) {
		t.Error("15 in (10,20) expected")
	}
	if BetweenOO(a, a, b) || BetweenOO(b, a, b) {
		t.Error("endpoints excluded from open interval")
	}
	if !BetweenOC(b, a, b) {
		t.Error("20 in (10,20] expected")
	}
	if !BetweenCO(a, a, b) {
		t.Error("10 in [10,20) expected")
	}
	if !BetweenCC(a, a, b) || !BetweenCC(b, a, b) {
		t.Error("endpoints included in closed interval")
	}
}

func TestBetweenWrapAround(t *testing.T) {
	// Interval that wraps through zero: (2^160-5, 10)
	a := Zero.Sub(FromUint64(5))
	b := FromUint64(10)
	if !BetweenOO(Zero, a, b) {
		t.Error("0 should lie in wrapped interval")
	}
	if !BetweenOO(FromUint64(3), a, b) {
		t.Error("3 should lie in wrapped interval")
	}
	if !BetweenOO(Zero.Sub(FromUint64(2)), a, b) {
		t.Error("2^160-2 should lie in wrapped interval")
	}
	if BetweenOO(FromUint64(100), a, b) {
		t.Error("100 outside wrapped interval")
	}
}

func TestBetweenDegenerate(t *testing.T) {
	n := FromUint64(77)
	k := FromUint64(5)
	// (n, n) is the whole ring minus n itself — the Chord single-node case.
	if !BetweenOO(k, n, n) {
		t.Error("(n,n) should contain everything but n")
	}
	if BetweenOO(n, n, n) {
		t.Error("(n,n) should exclude n")
	}
	// (n, n] wraps the entire ring.
	if !BetweenOC(n, n, n) || !BetweenOC(k, n, n) {
		t.Error("(n,n] should contain everything")
	}
}

func TestBetweenConsistency(t *testing.T) {
	// Property: for a != b, OO + membership of endpoints = CC.
	f := func(ka, aa, ba [5]uint32) bool {
		k, a, b := ID(ka), ID(aa), ID(ba)
		if a == b {
			return true
		}
		cc := BetweenCC(k, a, b)
		expanded := BetweenOO(k, a, b) || k == a || k == b
		return cc == expanded
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetweenComplement(t *testing.T) {
	// For distinct a, b and k not an endpoint: k in (a,b) xor k in (b,a).
	f := func(ka, aa, ba [5]uint32) bool {
		k, a, b := ID(ka), ID(aa), ID(ba)
		if a == b || k == a || k == b {
			return true
		}
		return BetweenOO(k, a, b) != BetweenOO(k, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist(t *testing.T) {
	a, b := FromUint64(100), FromUint64(40)
	if got := b.Dist(a); got != FromUint64(60) {
		t.Errorf("dist(40,100) = %v", got)
	}
	// Wrapping distance.
	if got := a.Dist(b); got != Zero.Sub(FromUint64(60)) {
		t.Errorf("dist(100,40) = %v", got)
	}
}

func TestHashDeterministic(t *testing.T) {
	if Hash("a") != Hash("a") {
		t.Error("hash must be deterministic")
	}
	if Hash("a") == Hash("b") {
		t.Error("distinct inputs should hash differently")
	}
}

func TestParseString(t *testing.T) {
	x := Hash("parse me")
	parsed, err := Parse(x.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != x {
		t.Errorf("parse(%s) = %v", x, parsed)
	}
	if _, err := Parse(""); err == nil {
		t.Error("empty parse should fail")
	}
	if _, err := Parse("zz"); err == nil {
		t.Error("non-hex parse should fail")
	}
	// Odd-length and short strings are accepted.
	short, err := Parse("f")
	if err != nil || short != FromUint64(15) {
		t.Errorf("Parse(f) = %v, %v", short, err)
	}
}

func TestRandomCoversWords(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := false
	for i := 0; i < 10; i++ {
		x := Random(r)
		if x[0] != 0 {
			seen = true
		}
	}
	if !seen {
		t.Error("random IDs never populated the high word")
	}
}

func TestShortString(t *testing.T) {
	x := Hash("short")
	if len(x.Short()) != 8 {
		t.Errorf("Short() = %q", x.Short())
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := Hash("x"), Hash("y")
	for i := 0; i < b.N; i++ {
		x = x.Add(y)
	}
}

func BenchmarkBetweenOO(b *testing.B) {
	k, lo, hi := Hash("k"), Hash("lo"), Hash("hi")
	for i := 0; i < b.N; i++ {
		BetweenOO(k, lo, hi)
	}
}
