package val

import (
	"bytes"
	"math/rand"
	"testing"

	"p2/internal/id"
)

// The ring arithmetic is checked against package id, its reference: every
// operation below is recomputed through AsID and id.ID's own methods.

func refAdd(a, b Value) Value { return MakeID(a.AsID().Add(b.AsID())) }
func refSub(a, b Value) Value { return MakeID(a.AsID().Sub(b.AsID())) }
func refNeg(a Value) Value    { return MakeID(id.Zero.Sub(a.AsID())) }

// refShl is Shl as the reference computes it: ints that fit stay ints,
// everything else shifts on the ring.
func refShl(a, b Value) Value {
	n := uint(b.AsInt())
	if a.Kind() != KID {
		if iv := a.AsInt(); n < 63 && iv >= 0 && iv < (1<<(62-n)) {
			return Int(iv << n)
		}
	}
	return MakeID(a.AsID().Shl(n))
}

func refShr(a, b Value) Value {
	if a.Kind() != KID {
		return Int(a.AsInt() >> uint(b.AsInt()))
	}
	return MakeID(a.AsID().Shr(uint(b.AsInt())))
}

func refIn(k, lo, hi Value, loClosed, hiClosed bool) bool {
	x, a, b := k.AsID(), lo.AsID(), hi.AsID()
	switch {
	case loClosed && hiClosed:
		return id.BetweenCC(x, a, b)
	case loClosed:
		return id.BetweenCO(x, a, b)
	case hiClosed:
		return id.BetweenOC(x, a, b)
	}
	return id.BetweenOO(x, a, b)
}

// words builds an ID from its ring words: the top 32 bits, then two
// 64-bit words.
func words(hi uint32, mid, lo uint64) Value {
	return MakeID(id.ID{hi, uint32(mid >> 32), uint32(mid), uint32(lo >> 32), uint32(lo)})
}

// edgeIDs are IDs whose words sit at the carry and borrow boundaries.
func edgeIDs() []Value {
	his := []uint32{0, 1, 1 << 31, 1<<32 - 1}
	los := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1 << 63, 1<<64 - 1}
	var out []Value
	for _, hi := range his {
		for _, mid := range los {
			for _, lo := range los {
				out = append(out, words(hi, mid, lo))
			}
		}
	}
	return out
}

// shifts are the shift counts at word boundaries, and past the ring.
var shifts = []int64{0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 127, 128, 129, 159, 160, 161, 200, 1 << 40, -1}

// checkRing compares every operation on a and b (and on k in (a, b)
// under every closedness) against the reference, reporting mismatches
// through t.
func checkRing(t testing.TB, k, a, b Value) {
	t.Helper()
	same := func(op string, got, want Value) {
		if !Same(got, want) {
			t.Fatalf("%s(%v, %v) = %v (%v), want %v (%v)", op, a, b, got, got.Kind(), want, want.Kind())
		}
	}
	if a.Kind() == KID || b.Kind() == KID {
		if a.Kind() != KStr && b.Kind() != KStr { // a string operand concatenates
			same("Add", Add(a, b), refAdd(a, b))
		}
		same("Sub", Sub(a, b), refSub(a, b))
	}
	if a.Kind() == KID {
		same("Neg", Neg(a), refNeg(a))
		same("Shr", Shr(a, b), refShr(a, b))
	}
	if a.Kind() != KStr {
		same("Shl", Shl(a, b), refShl(a, b))
	}
	// Results keep the bits above hi's 32 clear, so that one can be
	// computed on again before it is rendered.
	x, y := a.ring(), b.ring()
	for _, r := range []ring{x.add(y), x.sub(y), x.shl(uint(b.AsInt())), x.shr(uint(b.AsInt()))} {
		if r.hi > hiMask {
			t.Fatalf("ring result %#x from %v and %v has bits above 160", r.hi, a, b)
		}
	}
	for c := range 4 {
		lc, hc := c&1 != 0, c&2 != 0
		if got, want := In(k, a, b, lc, hc), refIn(k, a, b, lc, hc); got != want {
			t.Fatalf("In(%v, %v, %v, %v, %v) = %v, want %v", k, a, b, lc, hc, got, want)
		}
	}
}

func TestRingOpsTable(t *testing.T) {
	max160 := words(1<<32-1, 1<<64-1, 1<<64-1)
	cases := []struct {
		name    string
		k, a, b Value
	}{
		{"zeros", MakeID(id.Zero), MakeID(id.Zero), MakeID(id.Zero)},
		{"2^160-1 and 1", MakeID(id.Zero), max160, MakeID(id.One)},
		{"1 and 2^160-1", max160, MakeID(id.One), max160},
		{"carry out of lo", words(0, 0, 1<<64-1), words(0, 0, 1<<64-1), Int(1)},
		{"carry out of mid", words(0, 1<<64-1, 0), words(0, 1<<64-1, 1<<64-1), words(0, 0, 1)},
		{"borrow through both words", words(1, 0, 0), words(1, 0, 0), Int(1)},
		{"top word all ones", words(1<<32-1, 0, 0), words(1<<32-1, 0, 0), words(1<<32-1, 0, 0)},
		{"equal operands", words(7, 8, 9), words(7, 8, 9), words(7, 8, 9)},
		{"lo == hi, k elsewhere", words(0, 0, 5), words(0, 0, 9), words(0, 0, 9)},
		{"lo == hi, k on it", words(0, 0, 9), words(0, 0, 9), words(0, 0, 9)},
		{"wrapping interval", words(0, 0, 3), words(1<<32-1, 0, 0), words(0, 0, 5)},
		{"k at lo of a wrap", max160, max160, MakeID(id.Zero)},
		{"negative int minus id", Int(-1), Int(-1), words(0, 1<<63, 0)},
		{"id minus negative int", Int(-5), words(0, 0, 3), Int(-5)},
		{"int in id interval", Int(4), words(0, 0, 2), words(0, 0, 6)},
		{"float and id", Float(2.9), Float(-2.9), words(0, 0, 1)},
		{"time and id", Time(1e12), words(0, 0, 1), Time(3.5)},
		{"bool and id", Bool(true), Bool(true), max160},
		{"hex string and id", Str("ff"), Str("ff"), words(0, 0, 256)},
		{"bad hex and id", Str("zz"), words(0, 0, 1), Str("not hex")},
		{"null and id", Null, Null, words(0, 1, 0)},
		{"plain ints", Int(5), Int(1), Int(10)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkRing(t, c.k, c.a, c.b) })
	}
	for _, x := range edgeIDs() {
		for _, n := range shifts {
			checkRing(t, x, x, Int(n))
		}
	}
	// Shifts that leave int64: small ints promote to the ring.
	for _, v := range []Value{Int(1), Int(-1), Int(1 << 40), Bool(true), Float(3.5)} {
		for _, n := range shifts {
			checkRing(t, v, v, Int(n))
		}
	}
}

// randomOperand draws an edge ID, a random ID, or another kind's value,
// so mixed-kind embedding is exercised as well as pure ring arithmetic.
func randomOperand(r *rand.Rand, edges []Value) Value {
	switch r.Intn(10) {
	case 0, 1, 2:
		return edges[r.Intn(len(edges))]
	case 3:
		return Int(r.Int63() - r.Int63())
	case 4:
		return Int(int64(r.Intn(321) - 160)) // shift counts, both signs
	case 5:
		return Float(r.NormFloat64() * 1e18)
	case 6:
		return Str(id.Random(r).String()[r.Intn(40):])
	}
	return MakeID(id.Random(r))
}

func TestRingOpsRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	edges := edgeIDs()
	for range 100_000 {
		a := randomOperand(r, edges)
		b := randomOperand(r, edges)
		if r.Intn(2) == 0 && a.Kind() != KID && b.Kind() != KID {
			a = MakeID(id.Random(r))
		}
		checkRing(t, randomOperand(r, edges), a, b)
	}
}

// TestRingOpAllocs pins what the hop's arithmetic allocates: a ring test
// reads its operands in place, and a subtraction allocates only its
// result.
func TestRingOpAllocs(t *testing.T) {
	k, n, b := MakeID(id.Hash("k")), MakeID(id.Hash("n")), MakeID(id.Hash("b"))
	if got := testing.AllocsPerRun(100, func() { In(b, n, k, false, false) }); got != 0 {
		t.Errorf("In on three IDs allocated %v, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { Sub(k, b) }); got != 1 {
		t.Errorf("Sub on two IDs allocated %v, want 1", got)
	}
}

// FuzzRingOps checks every ring operation against the reference on
// arbitrary payloads (zero-extended or truncated to 20 bytes) and an
// int operand.
func FuzzRingOps(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, []byte{3}, int64(-1))
	f.Add(make([]byte, 20), bytes.Repeat([]byte{0xff}, 20), []byte{}, int64(64))
	f.Fuzz(func(t *testing.T, ka, aa, ba []byte, n int64) {
		k, a, b := MakeID(id.FromBytes(ka)), MakeID(id.FromBytes(aa)), MakeID(id.FromBytes(ba))
		checkRing(t, k, a, b)
		checkRing(t, k, a, Int(n))
		checkRing(t, Int(n), Int(n), b)
		checkRing(t, a, a, Int(n%200))
	})
}
