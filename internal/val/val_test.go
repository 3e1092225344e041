package val

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"p2/internal/id"
)

// Generate lets testing/quick produce arbitrary Values across all kinds.
func (Value) Generate(r *rand.Rand, size int) reflect.Value {
	var v Value
	switch r.Intn(7) {
	case 0:
		v = Null
	case 1:
		v = Bool(r.Intn(2) == 1)
	case 2:
		v = Int((r.Int63() - r.Int63()) >> r.Intn(64)) // every varint length, both signs
	case 3:
		v = Float(r.NormFloat64() * 1000)
	case 4:
		b := make([]byte, r.Intn(20)+r.Intn(2)*r.Intn(300)) // some past the one-byte length
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		v = Str(string(b))
	case 5:
		v = MakeID(id.Random(r))
	case 6:
		v = Time(float64(r.Intn(1 << 30)))
	}
	return reflect.ValueOf(v)
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KNull {
		t.Fatal("zero Value must be null")
	}
}

func TestKindString(t *testing.T) {
	if KInt.String() != "int" || KID.String() != "id" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false},
		{Bool(false), false},
		{Bool(true), true},
		{Int(0), false},
		{Int(-3), true},
		{Float(0), false},
		{Float(0.5), true},
		{Str(""), false},
		{Str("x"), true},
		{MakeID(id.Zero), false},
		{MakeID(id.One), true},
		{Time(0), false},
		{Time(9), true},
	}
	for _, c := range cases {
		if got := c.v.AsBool(); got != c.want {
			t.Errorf("AsBool(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCoercions(t *testing.T) {
	if Int(42).AsFloat() != 42.0 {
		t.Error("int→float")
	}
	if Float(3.9).AsInt() != 3 {
		t.Error("float→int floors toward zero")
	}
	if Str("17").AsInt() != 17 {
		t.Error("str→int")
	}
	if Str("2.5").AsFloat() != 2.5 {
		t.Error("str→float")
	}
	if Int(5).AsID() != id.FromUint64(5) {
		t.Error("int→id")
	}
	if Int(-1).AsID() != id.Zero.Sub(id.One) {
		t.Error("negative int→id wraps")
	}
	x := id.Hash("h")
	if MakeID(x).AsStr() != "0x"+x.Short() {
		t.Error("id→str")
	}
	if Str(x.String()).AsID() != x {
		t.Error("hex str→id")
	}
	if Str("not hex!").AsID() != id.Zero {
		t.Error("bad hex str→id should be zero")
	}
	if Bool(true).AsInt() != 1 {
		t.Error("bool→int")
	}
	if Time(12.5).AsFloat() != 12.5 {
		t.Error("time payload")
	}
}

func TestCmpTotalOrder(t *testing.T) {
	antisym := func(a, b Value) bool {
		return a.Cmp(b) == -b.Cmp(a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	reflexive := func(a Value) bool { return a.Cmp(a) == 0 && a.Equal(a) }
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpNumericCrossKind(t *testing.T) {
	if Int(3).Cmp(Float(3.0)) != 0 {
		t.Error("Int(3) should equal Float(3)")
	}
	if Int(2).Cmp(Float(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if Bool(true).Cmp(Int(1)) != 0 {
		t.Error("true == 1 numerically")
	}
	if Time(5).Cmp(Int(4)) != 1 {
		t.Error("time 5 > 4")
	}
	// Large int64s must compare exactly, not through float rounding.
	a, b := Int(1<<62), Int(1<<62+1)
	if a.Cmp(b) != -1 {
		t.Error("large ints compare exactly")
	}
}

// Same is the identity a computation may be reused under; Equal is not:
// the two operands below are Equal yet divide to different results.
func TestSame(t *testing.T) {
	if !Int(3).Equal(Float(3)) || Same(Int(3), Float(3)) {
		t.Error("Int(3) and Float(3) are Equal but not Same")
	}
	if Same(Div(Int(3), Int(2)), Div(Float(3), Int(2))) {
		t.Error("3/2 and 3.0/2 differ")
	}
	x := id.Hash("n1")
	for _, v := range []Value{Null, Bool(true), Int(-7), Float(2.5), Time(2.5), Str("a"), MakeID(x)} {
		if !Same(v, v) {
			t.Errorf("%v is not Same as itself", v)
		}
	}
	if !Same(MakeID(x), MakeID(x)) || Same(MakeID(x), MakeID(x.Add(id.One))) {
		t.Error("IDs are Same exactly when their payloads match")
	}
	if Same(Float(2.5), Time(2.5)) || Same(Str(""), Null) || Same(Bool(true), Int(1)) {
		t.Error("equal payloads of different kinds are not Same")
	}
}

// TestValueIsThreeWords pins the slot every tuple field, scratch slot and
// PEL stack slot is made of: a payload pointer, a word of payload and
// the kind (24 bytes on 64-bit, 16 on 32-bit, where uint64 aligns to 4).
func TestValueIsThreeWords(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	if got, want := unsafe.Sizeof(Value{}), word+8+word; got > want {
		t.Fatalf("a Value is %d bytes, want at most %d", got, want)
	}
}

// TestEmptyStrings: an empty string's payload pointer may be nil or not,
// depending on where the string came from, and no answer may depend on
// it. Str("") stays a string, not Null.
func TestEmptyStrings(t *testing.T) {
	dec, _, err := DecodeValue([]byte{byte(KStr), 0})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("abc")
	empties := []Value{Str(""), Str(strings.Clone("")), Str(string(buf[:0])), Str("abc"[3:]), Str(InternBytes(nil)), Str(strings.Repeat("x", 0)), dec}
	for i, a := range empties {
		for j, b := range empties {
			if !Same(a, b) || !a.Equal(b) || a.Cmp(b) != 0 {
				t.Errorf("empty strings %d and %d differ", i, j)
			}
		}
		if Same(a, Null) || a.Equal(Null) || a.Cmp(Null) != 1 || a.IsNull() || a.AsBool() {
			t.Errorf("empty string %d is taken for Null or for true", i)
		}
		if a.String() != "" || !bytes.Equal(a.AppendBinary(nil), []byte{byte(KStr), 0}) || a.EncodedSize() != 2 {
			t.Errorf("empty string %d prints %q and encodes % x", i, a.String(), a.AppendBinary(nil))
		}
	}
}

func TestCmpAcrossNonNumericKinds(t *testing.T) {
	if Str("z").Cmp(MakeID(id.Zero)) != -1 {
		t.Error("str ranks below id")
	}
	if Null.Cmp(Bool(false)) != -1 {
		t.Error("null ranks lowest")
	}
	if Str("a").Cmp(Str("b")) != -1 || Str("b").Cmp(Str("a")) != 1 {
		t.Error("string ordering")
	}
}

func TestArithmetic(t *testing.T) {
	if Add(Int(2), Int(3)).AsInt() != 5 {
		t.Error("2+3")
	}
	if Add(Int(2), Float(0.5)).AsFloat() != 2.5 {
		t.Error("int+float promotes")
	}
	if Add(Str("a"), Str("b")).AsStr() != "ab" {
		t.Error("string concat")
	}
	if Add(Str("n"), Int(1)).AsStr() != "n1" {
		t.Error("str+int concat")
	}
	if Sub(Int(10), Int(4)).AsInt() != 6 {
		t.Error("10-4")
	}
	if Mul(Int(6), Int(7)).AsInt() != 42 {
		t.Error("6*7")
	}
	if Div(Int(7), Int(2)).AsInt() != 3 {
		t.Error("integer division")
	}
	if Div(Float(7), Int(2)).AsFloat() != 3.5 {
		t.Error("float division")
	}
	if !Div(Int(1), Int(0)).IsNull() {
		t.Error("divide by zero is null")
	}
	if !Div(Float(1), Float(0)).IsNull() {
		t.Error("float divide by zero is null")
	}
	if Mod(Int(7), Int(3)).AsInt() != 1 {
		t.Error("7%3")
	}
	if !Mod(Int(7), Int(0)).IsNull() {
		t.Error("mod zero is null")
	}
	if Neg(Int(5)).AsInt() != -5 {
		t.Error("neg int")
	}
	if Neg(Float(2.5)).AsFloat() != -2.5 {
		t.Error("neg float")
	}
}

func TestTimeArithmetic(t *testing.T) {
	// f_now() - T yields a plain float duration.
	d := Sub(Time(30), Time(10))
	if d.Kind() != KFloat || d.AsFloat() != 20 {
		t.Errorf("time-time = %v (%v)", d, d.Kind())
	}
	// time + 5 stays a time.
	tv := Add(Time(30), Int(5))
	if !Same(tv, Time(35)) {
		t.Errorf("time+int = %v (%v)", tv, tv.Kind())
	}
	tv2 := Sub(Time(30), Int(5))
	if !Same(tv2, Time(25)) {
		t.Errorf("time-int = %v (%v)", tv2, tv2.Kind())
	}
}

func TestRingArithmetic(t *testing.T) {
	n := id.Hash("node")
	// K := N + (1 << I) — the finger target computation.
	k := Add(MakeID(n), Shl(Int(1), Int(20)))
	want := n.Add(id.Pow2(20))
	if k.AsID() != want {
		t.Errorf("finger target wrong: %v vs %v", k.AsID(), want)
	}
	// D := K - B - 1 on the ring.
	d := Sub(Sub(MakeID(n.Add(id.FromUint64(100))), MakeID(n)), Int(1))
	if d.AsID() != id.FromUint64(99) {
		t.Errorf("ring distance = %v", d)
	}
}

func TestShlPromotion(t *testing.T) {
	// Small shifts stay ints.
	if v := Shl(Int(1), Int(10)); v.Kind() != KInt || v.AsInt() != 1024 {
		t.Errorf("1<<10 = %v", v)
	}
	// Shifts that would overflow int64 promote to ID.
	v := Shl(Int(1), Int(100))
	if v.Kind() != KID || v.AsID() != id.Pow2(100) {
		t.Errorf("1<<100 = %v kind %v", v, v.Kind())
	}
	if Shr(Int(8), Int(2)).AsInt() != 2 {
		t.Error("8>>2")
	}
	if Shr(MakeID(id.Pow2(100)), Int(100)).AsID() != id.One {
		t.Error("id shr")
	}
}

func TestIn(t *testing.T) {
	n := MakeID(id.FromUint64(100))
	s := MakeID(id.FromUint64(200))
	k := MakeID(id.FromUint64(150))
	if !In(k, n, s, false, true) {
		t.Error("150 in (100,200]")
	}
	if !In(s, n, s, false, true) {
		t.Error("200 in (100,200]")
	}
	if In(n, n, s, false, false) {
		t.Error("100 not in (100,200)")
	}
	if !In(n, n, s, true, false) {
		t.Error("100 in [100,200)")
	}
	if !In(n, n, s, true, true) || !In(s, n, s, true, true) {
		t.Error("closed interval endpoints")
	}
	// Plain ints embed into the ring.
	if !In(Int(5), Int(1), Int(10), false, false) {
		t.Error("5 in (1,10) on ints")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(v Value) bool {
		b := v.AppendBinary(nil)
		if len(b) != v.EncodedSize() {
			return false
		}
		got, n, err := DecodeValue(b)
		if err != nil || n != len(b) {
			return false
		}
		// NaN floats won't compare equal; treat bit-pattern equality.
		if v.kind == KFloat && math.IsNaN(v.AsFloat()) {
			return got.kind == KFloat && math.IsNaN(got.AsFloat())
		}
		return got.Equal(v) && got.Kind() == v.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCodecSizes pins the encoded size at each varint boundary.
func TestCodecSizes(t *testing.T) {
	for _, c := range []struct {
		v    Value
		size int
	}{
		{Null, 1}, {Bool(true), 2}, {Float(1), 9}, {Time(1), 9}, {MakeID(id.One), 21},
		{Int(0), 2}, {Int(-1), 2}, {Int(63), 2}, {Int(-64), 2}, {Int(64), 3}, {Int(-65), 3},
		{Int(math.MaxInt64), 11}, {Int(math.MinInt64), 11},
		{Str(""), 2}, {Str(strings.Repeat("x", 127)), 129}, {Str(strings.Repeat("x", 128)), 131},
	} {
		b := c.v.AppendBinary(nil)
		got, n, err := DecodeValue(b)
		if len(b) != c.size || c.v.EncodedSize() != c.size || err != nil || n != c.size || !Same(got, c.v) {
			t.Errorf("%v: %d bytes (EncodedSize %d), want %d; decoded %v, %d, %v", c.v, len(b), c.v.EncodedSize(), c.size, got, n, err)
		}
	}
}

// TestCodecPrefixFree is the property table and index keys rest on
// (tuple.AppendKey concatenates these encodings): distinct values never
// encode to equal bytes, nor one to a prefix of the other.
func TestCodecPrefixFree(t *testing.T) {
	f := func(a, b Value) bool {
		ea, eb := a.AppendBinary(nil), b.AppendBinary(nil)
		return Same(a, b) || !(bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	// The near misses a random draw seldom makes: same kind, payloads
	// that share leading bytes.
	near := []Value{Null, Bool(false), Bool(true), Int(0), Int(1), Int(-1), Int(64), Int(128), Int(1 << 14),
		Float(0), Time(0), Str(""), Str("a"), Str("ab"), Str("\x01a"), Str(strings.Repeat("a", 128)), MakeID(id.Zero), MakeID(id.One)}
	for _, a := range near {
		for _, b := range near {
			if !f(a, b) {
				t.Errorf("%v and %v: one encoding prefixes the other", a, b)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":                 nil,
		"unknown kind":          {200},
		"truncated bool":        {byte(KBool)},
		"bool above 1":          {byte(KBool), 2},
		"int with no payload":   {byte(KInt)},
		"truncated int varint":  {byte(KInt), 0x80, 0x80},
		"overflowing int":       append([]byte{byte(KInt)}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02),
		"non-minimal int":       {byte(KInt), 0x81, 0x00},
		"truncated float":       {byte(KFloat), 1, 2},
		"truncated time":        {byte(KTime), 1, 2, 3, 4, 5, 6, 7},
		"truncated string":      {byte(KStr), 9, 'x'},
		"string with no length": {byte(KStr)},
		"truncated length":      {byte(KStr), 0x80},
		"non-minimal length":    {byte(KStr), 0x81, 0x00, 'x'},
		"overlong length":       {byte(KStr), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'x'},
		"length past int":       {byte(KStr), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'},
		"truncated id":          {byte(KID), 1, 2, 3},
	} {
		if v, n, err := DecodeValue(b); err == nil {
			t.Errorf("%s: decoded %v from %d bytes, want an error", name, v, n)
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-7), "-7"},
		{Str("hello"), "hello"},
		{Float(2.5), "2.5"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func BenchmarkCmpInt(b *testing.B) {
	x, y := Int(100), Int(200)
	for i := 0; i < b.N; i++ {
		x.Cmp(y)
	}
}

func BenchmarkEncodeDecodeID(b *testing.B) {
	v := MakeID(id.Hash("bench"))
	buf := v.AppendBinary(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf = v.AppendBinary(buf)
		DecodeValue(buf)
	}
}

// allocBytes reports the heap bytes one call of f allocates: the lesser
// of two runs, so that one-off growth (an interner shard's table) is
// not charged to the input that happened to trigger it.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	best := ^uint64(0)
	for range 2 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// FuzzDecodeValue: on arbitrary bytes the decoder never panics, never
// allocates more than a small multiple of its input, and whatever it
// accepts re-encodes to exactly the bytes it consumed.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{Null, Bool(true), Int(-3), Int(1 << 40), Float(2.5), Time(1.5), Str("10.0.0.1:7"), MakeID(id.One)} {
		f.Add(v.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Value
		var n int
		var err error
		if got := allocBytes(func() { v, n, err = DecodeValue(data) }); got > uint64(4*len(data)+512) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if enc := v.AppendBinary(nil); n != v.EncodedSize() || !bytes.Equal(enc, data[:n]) {
			t.Fatalf("decoded %v from % x, which re-encodes to % x (EncodedSize %d)", v, data[:n], enc, v.EncodedSize())
		}
	})
}

// rebuilt returns a copy of v whose string payload, if any, is a fresh
// copy of the bytes at another address.
func rebuilt(v Value) Value {
	if v.kind == KStr || v.kind == KID {
		return strValue(v.kind, strings.Clone(v.str()))
	}
	return Value{kind: v.kind, num: v.num}
}

// FuzzValueCompare: a value's answers depend on its payload bytes, never
// on their address. Every value the decoder accepts agrees in every
// respect with a copy whose payload is a fresh clone, and two decoded
// values are Same exactly when they encode to the same bytes.
func FuzzValueCompare(f *testing.F) {
	seeds := []Value{Null, Bool(false), Int(-3), Float(2.5), Time(1.5), Str(""), Str("ab"), Str("ac"), MakeID(id.One), MakeID(id.Zero)}
	for i, a := range seeds {
		f.Add(a.AppendBinary(nil), seeds[(i+1)%len(seeds)].AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, _, errA := DecodeValue(da)
		b, _, errB := DecodeValue(db)
		for _, v := range []Value{a, b} {
			c := rebuilt(v)
			if !Same(v, c) || !v.Equal(c) || v.Cmp(c) != 0 || c.Cmp(v) != 0 {
				t.Fatalf("%v and its rebuilt copy differ", v)
			}
			if v.String() != c.String() || !bytes.Equal(v.AppendBinary(nil), c.AppendBinary(nil)) || v.AsBool() != c.AsBool() {
				t.Fatalf("%v and its rebuilt copy print or encode differently", v)
			}
		}
		if errA != nil || errB != nil {
			return
		}
		if same, enc := Same(a, b), bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)); same != enc {
			t.Fatalf("Same(%v, %v) is %v, yet their encodings equal: %v", a, b, same, enc)
		}
		if a.Cmp(b) != -b.Cmp(a) {
			t.Fatalf("Cmp(%v, %v) is %d, Cmp back is %d", a, b, a.Cmp(b), b.Cmp(a))
		}
	})
}
