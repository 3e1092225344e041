package pel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p2/internal/eventloop"
	"p2/internal/id"
	"p2/internal/tuple"
	"p2/internal/val"
)

func env() *Env {
	return &Env{
		Clock: eventloop.NewSim(),
		Rand:  rand.New(rand.NewSource(42)),
		Local: "n1:1234",
	}
}

func eval(t *testing.T, p *Program, in *tuple.Tuple) val.Value {
	t.Helper()
	v, err := NewVM().Eval(p, in, env())
	if err != nil {
		t.Fatalf("eval failed: %v (program %s)", err, p)
	}
	return v
}

func TestConstAndField(t *testing.T) {
	in := tuple.New("t", val.Str("n1"), val.Int(7))
	p := NewBuilder().Field(1).Const(val.Int(3)).Op(OpAdd).Build()
	if got := eval(t, p, in); got.AsInt() != 10 {
		t.Errorf("7+3 = %v", got)
	}
}

func TestArithmeticChain(t *testing.T) {
	// (4 * 5 - 2) / 3 % 4 = 18/3 % 4 = 6 % 4 = 2
	p := NewBuilder().
		Const(val.Int(4)).Const(val.Int(5)).Op(OpMul).
		Const(val.Int(2)).Op(OpSub).
		Const(val.Int(3)).Op(OpDiv).
		Const(val.Int(4)).Op(OpMod).
		Build()
	if got := eval(t, p, tuple.New("x")); got.AsInt() != 2 {
		t.Errorf("got %v", got)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	in := tuple.New("t", val.Int(5), val.Int(9))
	cases := []struct {
		op   Op
		want bool
	}{
		{OpEq, false}, {OpNe, true}, {OpLt, true},
		{OpLe, true}, {OpGt, false}, {OpGe, false},
	}
	for _, c := range cases {
		p := NewBuilder().Field(0).Field(1).Op(c.op).Build()
		if got := eval(t, p, in).AsBool(); got != c.want {
			t.Errorf("5 %s 9 = %v, want %v", opNames[c.op], got, c.want)
		}
	}
	// (5 < 9) && !(5 == 9) || false
	p := NewBuilder().
		Field(0).Field(1).Op(OpLt).
		Field(0).Field(1).Op(OpEq).Op(OpNot).
		Op(OpAnd).
		Const(val.Bool(false)).Op(OpOr).
		Build()
	if !eval(t, p, in).AsBool() {
		t.Error("logic chain")
	}
}

func TestStackManipulation(t *testing.T) {
	p := NewBuilder().Const(val.Int(1)).Const(val.Int(2)).Op(OpSwap).Op(OpPop).Build()
	if got := eval(t, p, tuple.New("x")); got.AsInt() != 2 {
		t.Errorf("swap/pop = %v", got)
	}
	p2 := NewBuilder().Const(val.Int(3)).Op(OpDup).Op(OpMul).Build()
	if got := eval(t, p2, tuple.New("x")); got.AsInt() != 9 {
		t.Errorf("dup/mul = %v", got)
	}
}

func TestRingInterval(t *testing.T) {
	n := id.FromUint64(100)
	s := id.FromUint64(200)
	in := tuple.New("lookup", val.MakeID(id.FromUint64(150)), val.MakeID(n), val.MakeID(s))
	// K in (N, S]
	p := NewBuilder().Field(0).Field(1).Field(2).In(false, true).Build()
	if !eval(t, p, in).AsBool() {
		t.Error("150 in (100,200]")
	}
	// endpoint: S in (N, S]
	in2 := tuple.New("lookup", val.MakeID(s), val.MakeID(n), val.MakeID(s))
	if !eval(t, p, in2).AsBool() {
		t.Error("200 in (100,200]")
	}
	// N not in (N, S]
	in3 := tuple.New("lookup", val.MakeID(n), val.MakeID(n), val.MakeID(s))
	if eval(t, p, in3).AsBool() {
		t.Error("100 not in (100,200]")
	}
}

func TestFingerTargetExpression(t *testing.T) {
	// K := N + (1 << I) — the Chord F2/F3 computation.
	n := id.Hash("node")
	in := tuple.New("fFix", val.Str("n1"), val.Str("e"), val.Int(42), val.MakeID(n))
	p := NewBuilder().
		Field(3).
		Const(val.Int(1)).Field(2).Op(OpShl).
		Op(OpAdd).
		Build()
	want := n.Add(id.Pow2(42))
	if got := eval(t, p, in); got.AsID() != want {
		t.Errorf("finger target = %v, want %v", got.AsID(), want)
	}
}

func TestBuiltins(t *testing.T) {
	e := env()
	sim := e.Clock.(*eventloop.Sim)
	sim.Run(12.5)
	vm := NewVM()

	now, err := vm.Eval(NewBuilder().Op(OpNow).Build(), tuple.New("x"), e)
	if err != nil || !val.Same(now, val.Time(12.5)) {
		t.Errorf("f_now = %v, %v", now, err)
	}

	r, err := vm.Eval(NewBuilder().Op(OpRand).Build(), tuple.New("x"), e)
	if err != nil || r.AsFloat() < 0 || r.AsFloat() >= 1 {
		t.Errorf("f_rand = %v, %v", r, err)
	}

	always, _ := vm.Eval(NewBuilder().Const(val.Float(1.1)).Op(OpCoinFlip).Build(), tuple.New("x"), e)
	if !always.AsBool() {
		t.Error("coinflip(1.1) must be true")
	}
	never, _ := vm.Eval(NewBuilder().Const(val.Float(0)).Op(OpCoinFlip).Build(), tuple.New("x"), e)
	if never.AsBool() {
		t.Error("coinflip(0) must be false")
	}

	h, _ := vm.Eval(NewBuilder().Const(val.Str("n1:1234")).Op(OpSha1).Build(), tuple.New("x"), e)
	if h.AsID() != id.Hash("n1:1234") {
		t.Error("f_sha1 mismatch")
	}

	local, _ := vm.Eval(NewBuilder().Op(OpLocal).Build(), tuple.New("x"), e)
	if local.AsStr() != "n1:1234" {
		t.Errorf("f_localAddr = %v", local)
	}

	tid, _ := vm.Eval(NewBuilder().Const(val.Int(9)).Op(OpToID).Build(), tuple.New("x"), e)
	if tid.Kind() != val.KID || tid.AsID() != id.FromUint64(9) {
		t.Errorf("toid = %v", tid)
	}
	ts, _ := vm.Eval(NewBuilder().Const(val.Int(9)).Op(OpToStr).Build(), tuple.New("x"), e)
	if ts.Kind() != val.KStr || ts.AsStr() != "9" {
		t.Errorf("tostr = %v", ts)
	}
}

func TestErrors(t *testing.T) {
	vm := NewVM()
	cases := []*Program{
		NewBuilder().Op(OpAdd).Build(),                  // underflow
		NewBuilder().Const(val.Int(1)).Op(OpIn).Build(), // underflow ternary
		NewBuilder().Build(),                            // empty stack at end
		{code: []Instr{{OpConst, 5}}},                   // bad const index
		{code: []Instr{{Op(200), 0}}},                   // unknown opcode
	}
	for i, p := range cases {
		if _, err := vm.Eval(p, tuple.New("x"), env()); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Builtins with missing env pieces.
	if _, err := vm.Eval(NewBuilder().Op(OpNow).Build(), tuple.New("x"), &Env{}); err == nil {
		t.Error("f_now without clock must error")
	}
	if _, err := vm.Eval(NewBuilder().Op(OpRand).Build(), tuple.New("x"), &Env{}); err == nil {
		t.Error("f_rand without rng must error")
	}
}

func TestVMReuseDoesNotLeakStack(t *testing.T) {
	vm := NewVM()
	p := NewBuilder().Const(val.Int(1)).Const(val.Int(2)).Build() // leaves 2 values
	for i := 0; i < 3; i++ {
		v, err := vm.Eval(p, tuple.New("x"), env())
		if err != nil || v.AsInt() != 2 {
			t.Fatalf("iteration %d: %v %v", i, v, err)
		}
	}
}

// A VM sized by a shallow program must regrow for a deeper one: Build
// records each program's depth and run never appends past it.
func TestVMStackFollowsProgramDepth(t *testing.T) {
	vm := NewVM()
	shallow := NewBuilder().Const(val.Int(1)).Build()
	deep := NewBuilder().Const(val.Int(1)).Const(val.Int(2)).Const(val.Int(3)).Const(val.Int(4)).
		Op(OpAdd).Op(OpAdd).Op(OpAdd).Build()
	if shallow.depth != 1 || deep.depth != 4 {
		t.Fatalf("depths = %d, %d, want 1, 4", shallow.depth, deep.depth)
	}
	for _, p := range []*Program{shallow, deep, shallow} {
		if _, err := vm.Eval(p, tuple.New("x"), env()); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := vm.Eval(deep, tuple.New("x"), env()); v.AsInt() != 10 {
		t.Fatalf("1+2+3+4 = %v", v)
	}
}

func TestReads(t *testing.T) {
	fields, pure := NewBuilder().Field(6).Op(OpLocal).Op(OpSha1).Field(1).In(false, false).Build().Reads()
	if !pure || len(fields) != 2 || fields[0] != 6 || fields[1] != 1 {
		t.Errorf("Reads = %v, %v, want [6 1], pure", fields, pure)
	}
	for _, op := range []Op{OpNow, OpRand} {
		if _, pure := NewBuilder().Field(0).Op(op).Op(OpLt).Build().Reads(); pure {
			t.Errorf("a program with %s is not pure", opNames[op])
		}
	}
	if _, pure := NewBuilder().Field(0).Op(OpCoinFlip).Build().Reads(); pure {
		t.Error("a program with coinflip is not pure")
	}
}

func TestDisassembly(t *testing.T) {
	p := NewBuilder().Field(2).Const(val.Int(1)).Op(OpAdd).In(false, true).Build()
	s := p.String()
	if s == "" {
		t.Fatal("empty disassembly")
	}
	for _, want := range []string{"$2", "push(1)", "add", "in(]"} {
		if !contains(s, want) {
			t.Errorf("disassembly %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestArithmeticLawsViaPEL(t *testing.T) {
	// Property: PEL add matches val.Add for arbitrary ints.
	vm := NewVM()
	f := func(a, b int64) bool {
		p := NewBuilder().Const(val.Int(a)).Const(val.Int(b)).Op(OpAdd).Build()
		got, err := vm.Eval(p, tuple.New("x"), env())
		return err == nil && got.AsInt() == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalSelect(b *testing.B) {
	// A typical selection: K in (N, S] on IDs.
	in := tuple.New("lookup",
		val.MakeID(id.Hash("k")), val.MakeID(id.Hash("n")), val.MakeID(id.Hash("s")))
	p := NewBuilder().Field(0).Field(1).Field(2).In(false, true).Build()
	vm := NewVM()
	e := env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Eval(p, in, e); err != nil {
			b.Fatal(err)
		}
	}
}

// foldRow is one lookup hop's row in Chord's L2 and L3 folds: the event
// ++ node(NI, N) on the left, finger(NI, I, B, BI) on the right. L2's
// event is lookup(NI, K, R, E), L3's is bestLookupDist(NI, K, R, E, D),
// with D the distance L2 folded for this finger.
type foldRow struct {
	l2, l3, finger *tuple.Tuple
	in, dist, eq   *Program
}

func newFoldRow() foldRow {
	ni, k, n, b := val.Str("n1:1234"), val.MakeID(id.Hash("key")), val.MakeID(id.Hash("n1:1234")), id.Hash("n9:1234")
	d := val.Sub(val.Sub(k, val.MakeID(b)), val.Int(1))
	return foldRow{
		l2:     tuple.New("lookup", ni, k, val.Str("r:1"), val.Int(7), ni, n),
		l3:     tuple.New("bestLookupDist", ni, k, val.Str("r:1"), val.Int(7), d, ni, n),
		finger: tuple.New("finger", ni, val.Int(159), val.MakeID(b), val.Str("n9:1234")),
		// L2: B in (N,K), then the fold input D := K - B - 1.
		in:   NewBuilder().Field(8).Field(5).Field(1).In(false, false).Build(),
		dist: NewBuilder().Field(1).Field(8).Op(OpSub).Const(val.Int(1)).Op(OpSub).Build(),
		// L3: D == K - B - 1.
		eq: NewBuilder().Field(4).Field(1).Field(9).Op(OpSub).Const(val.Int(1)).Op(OpSub).Op(OpEq).Build(),
	}
}

// eval runs the row's three programs as the folds do, reporting whether
// both filters held.
func (r foldRow) eval(vm *VM, e *Env) bool {
	in, _ := vm.EvalJoined(r.in, r.l2, r.finger, e)
	vm.EvalJoined(r.dist, r.l2, r.finger, e)
	eq, _ := vm.EvalJoined(r.eq, r.l3, r.finger, e)
	return in.AsBool() && eq.AsBool()
}

// TestRingOpAllocsInVM pins the hop's arithmetic inside the VM: L2's
// K - B - 1 allocates its two results and nothing else, and f_toID on
// an ID passes it through.
func TestRingOpAllocsInVM(t *testing.T) {
	r, vm, e := newFoldRow(), NewVM(), env()
	if !r.eval(vm, e) {
		t.Fatal("the finger must pass both filters")
	}
	if got := testing.AllocsPerRun(100, func() { vm.EvalJoined(r.dist, r.l2, r.finger, e) }); got != 2 {
		t.Errorf("K - B - 1 allocated %v, want 2", got)
	}
	toID := NewBuilder().Field(1).Op(OpToID).Build()
	if got := testing.AllocsPerRun(100, func() { vm.Eval(toID, r.l2, e) }); got != 0 {
		t.Errorf("f_toID on an ID allocated %v, want 0", got)
	}
}

// BenchmarkFoldRow is the cost of one finger row in a lookup hop: L2's
// B in (N,K) and K - B - 1, and L3's D == K - B - 1.
func BenchmarkFoldRow(b *testing.B) {
	r, vm, e := newFoldRow(), NewVM(), env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !r.eval(vm, e) {
			b.Fatal("the finger must pass both filters")
		}
	}
}
