package tuple

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"p2/internal/id"
	"p2/internal/val"
)

func mk(name string, vs ...val.Value) *Tuple { return New(name, vs...) }

func TestBasics(t *testing.T) {
	tp := mk("member", val.Str("n1"), val.Str("n2"), val.Int(4))
	if tp.Name() != "member" || tp.Arity() != 3 {
		t.Fatalf("name/arity wrong: %v", tp)
	}
	if tp.Loc() != "n1" {
		t.Errorf("Loc = %q", tp.Loc())
	}
	if tp.Field(2).AsInt() != 4 {
		t.Error("field access")
	}
	if !tp.Field(9).IsNull() || !tp.Field(-1).IsNull() {
		t.Error("out-of-range fields are null")
	}
	if mk("x").Loc() != "" {
		t.Error("empty tuple loc")
	}
}

func TestEqual(t *testing.T) {
	a := mk("t", val.Int(1), val.Str("x"))
	b := mk("t", val.Int(1), val.Str("x"))
	c := mk("t", val.Int(2), val.Str("x"))
	d := mk("u", val.Int(1), val.Str("x"))
	e := mk("t", val.Int(1))
	if !a.Equal(b) {
		t.Error("identical tuples must be equal")
	}
	if a.Equal(c) || a.Equal(d) || a.Equal(e) {
		t.Error("distinct tuples must differ")
	}
}

func TestKey(t *testing.T) {
	a := mk("member", val.Str("n1"), val.Str("peer"), val.Int(5))
	b := mk("member", val.Str("n1"), val.Str("peer"), val.Int(9))
	if a.Key([]int{0, 1}) != b.Key([]int{0, 1}) {
		t.Error("keys over same fields must match")
	}
	if a.Key([]int{0, 2}) == b.Key([]int{0, 2}) {
		t.Error("keys over differing fields must differ")
	}
	// Keys must be injective across adjacent string fields.
	c := mk("t", val.Str("ab"), val.Str("c"))
	d := mk("t", val.Str("a"), val.Str("bc"))
	if c.Key([]int{0, 1}) == d.Key([]int{0, 1}) {
		t.Error("key encoding must be unambiguous")
	}
}

func TestStringRendering(t *testing.T) {
	tp := mk("ping", val.Str("n1"), val.Int(3))
	if got := tp.String(); got != "ping(n1, 3)" {
		t.Errorf("String = %q", got)
	}
}

func randTuple(r *rand.Rand) *Tuple {
	names := []string{"lookup", "succ", "member", "ping", "x"}
	n := r.Intn(6)
	fields := make([]val.Value, n)
	for i := range fields {
		switch r.Intn(5) {
		case 0:
			fields[i] = val.Int(r.Int63() >> r.Intn(64))
		case 1:
			fields[i] = val.Str("addr:" + string(rune('a'+r.Intn(26))))
		case 2:
			fields[i] = val.MakeID(id.Random(r))
		case 3:
			fields[i] = val.Bool(r.Intn(2) == 0)
		case 4:
			fields[i] = val.Time(float64(r.Intn(10000)))
		}
	}
	return New(names[r.Intn(len(names))], fields...)
}

type tupleGen struct{ t *Tuple }

func (tupleGen) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(tupleGen{randTuple(r)})
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(g tupleGen) bool {
		b := g.t.Marshal()
		if len(b) != g.t.EncodedSize() {
			return false
		}
		got, n, err := Unmarshal(b)
		return err == nil && n == len(b) && got.Equal(g.t)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good := mk("t", val.Int(1)).Marshal()
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := Unmarshal(good[:cut]); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	// A corrupt count must cost an error, not an allocation sized by it.
	for name, b := range map[string][]byte{
		"name longer than the data":  {9, 't', 0},
		"name length past int":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 't'},
		"non-minimal name length":    {0x81, 0x00, 't', 0},
		"arity longer than the data": {1, 't', 0xff, 0xff, 0x03, 0, 0},
		"overflowing arity":          {1, 't', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		var err error
		if got := allocBytes(func() { _, _, err = Unmarshal(b) }); err == nil || got > 1024 {
			t.Errorf("%s: err = %v after allocating %d bytes", name, err, got)
		}
	}
}

func TestMarshalConcatenation(t *testing.T) {
	// Two tuples marshaled back to back decode cleanly in sequence —
	// the property packet payloads rely on.
	a := mk("a", val.Int(1), val.Str("x"))
	b := mk("b", val.MakeID(id.Hash("k")))
	buf := append(a.Marshal(), b.Marshal()...)
	got1, n1, err := Unmarshal(buf)
	if err != nil || !got1.Equal(a) {
		t.Fatalf("first decode: %v %v", got1, err)
	}
	got2, n2, err := Unmarshal(buf[n1:])
	if err != nil || !got2.Equal(b) || n1+n2 != len(buf) {
		t.Fatalf("second decode: %v %v", got2, err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	tp := mk("lookup", val.Str("10.0.0.1:4000"), val.MakeID(id.Hash("k")),
		val.Str("10.0.0.2:4000"), val.Str("evt-12345"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Marshal()
	}
}

// TestMakeIsOneBlock: Make hands back n Null fields whose capacity ends
// at the tuple's arity, in one allocation up to the widest shipped head
// (7 fields) and two beyond it; Unmarshal decodes into the same block.
func TestMakeIsOneBlock(t *testing.T) {
	for n := 0; n <= 9; n++ {
		var tp *Tuple
		allocs := testing.AllocsPerRun(100, func() { tp = Make("h", n) })
		want := 1.0
		if n > 7 {
			want = 2
		}
		if allocs != want {
			t.Errorf("Make(h, %d) allocated %.1f times, want %.0f", n, allocs, want)
		}
		if tp.Name() != "h" || tp.Arity() != n || cap(tp.Fields()) != n {
			t.Fatalf("Make(h, %d) = %v with capacity %d", n, tp, cap(tp.Fields()))
		}
		for i, f := range tp.Fields() {
			if !f.IsNull() {
				t.Fatalf("Make(h, %d) field %d is %v, want null", n, i, f)
			}
		}
	}
	buf := mk("lookup", val.Str("10.0.0.1:4000"), val.MakeID(id.Hash("k")), val.Int(3)).Marshal()
	Unmarshal(buf) // interns the strings
	if allocs := testing.AllocsPerRun(100, func() { Unmarshal(buf) }); allocs != 1 {
		t.Errorf("Unmarshal of a 3-field tuple allocated %.1f times, want 1", allocs)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	buf := mk("lookup", val.Str("10.0.0.1:4000"), val.MakeID(id.Hash("k")),
		val.Str("10.0.0.2:4000"), val.Str("evt-12345")).Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Unmarshal(buf)
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

// FuzzUnmarshal: on arbitrary bytes the decoder never panics, never
// allocates more than a small multiple of its input (a one-byte null
// field becomes a 24-byte Value, the worst ratio), and whatever it
// accepts re-marshals to exactly the bytes it consumed.
func FuzzUnmarshal(f *testing.F) {
	f.Add(mk("t").Marshal())
	f.Add(mk("lookup", val.Str("10.0.0.1:4000"), val.MakeID(id.Hash("k")), val.Int(-7), val.Time(1.5), val.Null, val.Bool(true)).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		var tp *Tuple
		var n int
		var err error
		if got := allocBytes(func() { tp, n, err = Unmarshal(data) }); got > uint64(64*len(data)+1024) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if enc := tp.Marshal(); n != tp.EncodedSize() || !bytes.Equal(enc, data[:n]) {
			t.Fatalf("decoded %v from % x, which re-marshals to % x (EncodedSize %d)", tp, data[:n], enc, tp.EncodedSize())
		}
	})
}
