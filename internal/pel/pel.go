// Package pel implements the P2 Expression Language: a small stack-based
// postfix byte-code language for manipulating Values and Tuples (§3.1).
//
// PEL is not written by humans. The planner compiles OverLog expressions
// — selections, assignments, projections, aggregate arguments — into PEL
// programs, and dataflow elements are parameterized by them. A Program
// evaluates against an input tuple and an Env (clock, random source,
// local address) and leaves its result on top of the VM stack.
package pel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"p2/internal/eventloop"
	"p2/internal/id"
	"p2/internal/tuple"
	"p2/internal/val"
)

// Op is a PEL opcode.
type Op uint8

// The PEL instruction set.
const (
	OpConst Op = iota // push consts[arg]
	OpField           // push input.Field(arg)
	OpPop             // discard top
	OpDup             // duplicate top
	OpSwap            // swap top two

	OpAdd // binary arithmetic: pop b, pop a, push a OP b
	OpSub
	OpMul
	OpDiv
	OpMod
	OpShl
	OpShr
	OpNeg // unary minus

	OpEq // comparisons: push bool
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	OpAnd // logical on truthiness
	OpOr
	OpNot

	OpIn // pop hi, lo, k; arg bit0 = lo closed, bit1 = hi closed

	OpNow      // push current time from env clock
	OpRand     // push uniform float64 in [0,1)
	OpCoinFlip // pop p, push bool (true with probability p)
	OpSha1     // pop v, push ID = SHA-1(string render of v)
	OpLocal    // push env.Local (this node's address)
	OpToID     // pop v, push v coerced to ID
	OpToStr    // pop v, push string render
)

var opNames = map[Op]string{
	OpConst: "const", OpField: "field", OpPop: "pop", OpDup: "dup",
	OpSwap: "swap", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpShl: "shl", OpShr: "shr", OpNeg: "neg", OpEq: "eq",
	OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpAnd: "and", OpOr: "or", OpNot: "not", OpIn: "in", OpNow: "now",
	OpRand: "rand", OpCoinFlip: "coinflip", OpSha1: "sha1",
	OpLocal: "local", OpToID: "toid", OpToStr: "tostr",
}

// Instr is a single byte-code instruction.
type Instr struct {
	Op  Op
	Arg int
}

// Program is a compiled PEL expression. Programs are straight-line, so
// Build checks stack discipline once and records depth, the deepest the
// operand stack gets; -1 marks a malformed program, whose Eval returns
// what check finds.
type Program struct {
	code   []Instr
	consts []val.Value
	depth  int
}

// Env supplies the runtime context PEL built-ins read.
type Env struct {
	Clock eventloop.Clock
	Rand  *rand.Rand
	Local string // this node's address, for f_localAddr()
}

// Builder assembles Programs. Methods chain.
type Builder struct {
	p Program
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return &Builder{} }

// Const appends a push-constant instruction.
func (b *Builder) Const(v val.Value) *Builder {
	b.p.consts = append(b.p.consts, v)
	b.p.code = append(b.p.code, Instr{OpConst, len(b.p.consts) - 1})
	return b
}

// Field appends a push-input-field instruction.
func (b *Builder) Field(i int) *Builder { return b.Emit(OpField, i) }

// Emit appends an arbitrary instruction.
func (b *Builder) Emit(op Op, arg int) *Builder {
	b.p.code = append(b.p.code, Instr{op, arg})
	return b
}

// Op appends a zero-argument instruction.
func (b *Builder) Op(op Op) *Builder { return b.Emit(op, 0) }

// In appends an interval-membership instruction with bound closedness.
func (b *Builder) In(loClosed, hiClosed bool) *Builder {
	arg := 0
	if loClosed {
		arg |= 1
	}
	if hiClosed {
		arg |= 2
	}
	return b.Emit(OpIn, arg)
}

// Build finalizes the program, checking it once.
func (b *Builder) Build() *Program {
	p := b.p
	var err error
	if p.depth, err = p.check(); err != nil {
		p.depth = -1
	}
	return &p
}

var errEmptyStack = errors.New("pel: program left empty stack")

// check walks the program: no instruction may find fewer operands than
// it pops, and a result must be left. It returns the stack depth the VM
// has to provide.
func (p *Program) check() (maxDepth int, err error) {
	depth := 0
	for pc, ins := range p.code {
		pops, pushes := stackEffect(ins.Op)
		if depth < pops {
			return 0, fmt.Errorf("pel: stack underflow at pc %d (%s)", pc, opNames[ins.Op])
		}
		depth += pushes - pops
		maxDepth = max(maxDepth, depth)
	}
	if depth == 0 {
		return 0, errEmptyStack
	}
	return maxDepth, nil
}

// Reads returns the input field positions the program references, in
// code order, and whether it is pure: its value depends on nothing but
// those fields (and the node's own address), so it may be evaluated
// once for inputs that agree on them.
func (p *Program) Reads() (fields []int, pure bool) {
	pure = true
	for _, ins := range p.code {
		switch ins.Op {
		case OpField:
			fields = append(fields, ins.Arg)
		case OpNow, OpRand, OpCoinFlip:
			pure = false
		}
	}
	return fields, pure
}

// String disassembles the program for the olgc inspector.
func (p *Program) String() string {
	var sb strings.Builder
	for i, in := range p.code {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch in.Op {
		case OpConst:
			fmt.Fprintf(&sb, "push(%s)", p.consts[in.Arg])
		case OpField:
			fmt.Fprintf(&sb, "$%d", in.Arg)
		case OpIn:
			lo, hi := "(", ")"
			if in.Arg&1 != 0 {
				lo = "["
			}
			if in.Arg&2 != 0 {
				hi = "]"
			}
			fmt.Fprintf(&sb, "in%s%s", lo, hi)
		default:
			sb.WriteString(opNames[in.Op])
		}
	}
	return sb.String()
}

// VM executes PEL programs. A VM is reusable and not safe for concurrent
// use — exactly one lives per node (in its dataflow.Ctx), serving every
// element of every strand the node runs: an evaluation finishes before
// the element that ran it pushes anything downstream.
type VM struct {
	stack []val.Value
}

// NewVM returns a fresh VM. The operand stack starts nil and run sizes
// it to the depth Build measured for the deepest program evaluated so
// far — steady-state evaluation is allocation-free without a fixed-size
// preallocation on every VM. A big deployment holds one VM per node,
// tens of thousands of them, and most programs are a handful of slots
// deep.
func NewVM() *VM { return &VM{} }

// Eval runs p against the input tuple and environment, returning the
// value left on top of the stack. Errors indicate malformed programs
// (the stack underflow Build found, a missing constant), which are
// planner bugs.
func (vm *VM) Eval(p *Program, in *tuple.Tuple, env *Env) (val.Value, error) {
	return vm.run(p, in, nil, 0, env)
}

// EvalJoined runs p against the virtual concatenation of left and
// right: field references below left's arity read left, the rest read
// right shifted down. Equijoins use it to evaluate selection predicates
// against a candidate match before materializing the concatenated
// tuple, so filtered-out matches never allocate.
func (vm *VM) EvalJoined(p *Program, left, right *tuple.Tuple, env *Env) (val.Value, error) {
	return vm.run(p, left, right, left.Arity(), env)
}

func (vm *VM) run(p *Program, in, right *tuple.Tuple, split int, env *Env) (val.Value, error) {
	if p.depth < 0 {
		_, err := p.check()
		return val.Null, err
	}
	if cap(vm.stack) < p.depth {
		vm.stack = make([]val.Value, 0, p.depth)
	}
	st := vm.stack // every append below stays within p.depth
	pop := func() val.Value {
		v := st[len(st)-1]
		st = st[:len(st)-1]
		return v
	}
	for pc, ins := range p.code {
		switch ins.Op {
		case OpConst:
			if ins.Arg >= len(p.consts) {
				return val.Null, fmt.Errorf("pel: bad const index %d", ins.Arg)
			}
			st = append(st, p.consts[ins.Arg])
		case OpField:
			if right != nil && ins.Arg >= split {
				st = append(st, right.Field(ins.Arg-split))
			} else {
				st = append(st, in.Field(ins.Arg))
			}
		case OpPop:
			pop()
		case OpDup:
			st = append(st, st[len(st)-1])
		case OpSwap:
			st[len(st)-1], st[len(st)-2] = st[len(st)-2], st[len(st)-1]
		case OpAdd:
			b := pop()
			st[len(st)-1] = val.Add(st[len(st)-1], b)
		case OpSub:
			b := pop()
			st[len(st)-1] = val.Sub(st[len(st)-1], b)
		case OpMul:
			b := pop()
			st[len(st)-1] = val.Mul(st[len(st)-1], b)
		case OpDiv:
			b := pop()
			st[len(st)-1] = val.Div(st[len(st)-1], b)
		case OpMod:
			b := pop()
			st[len(st)-1] = val.Mod(st[len(st)-1], b)
		case OpShl:
			b := pop()
			st[len(st)-1] = val.Shl(st[len(st)-1], b)
		case OpShr:
			b := pop()
			st[len(st)-1] = val.Shr(st[len(st)-1], b)
		case OpNeg:
			st[len(st)-1] = val.Neg(st[len(st)-1])
		case OpEq:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].Cmp(b) == 0)
		case OpNe:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].Cmp(b) != 0)
		case OpLt:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].Cmp(b) < 0)
		case OpLe:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].Cmp(b) <= 0)
		case OpGt:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].Cmp(b) > 0)
		case OpGe:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].Cmp(b) >= 0)
		case OpAnd:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].AsBool() && b.AsBool())
		case OpOr:
			b := pop()
			st[len(st)-1] = val.Bool(st[len(st)-1].AsBool() || b.AsBool())
		case OpNot:
			st[len(st)-1] = val.Bool(!st[len(st)-1].AsBool())
		case OpIn:
			hi := pop()
			lo := pop()
			k := pop()
			st = append(st, val.Bool(val.In(k, lo, hi, ins.Arg&1 != 0, ins.Arg&2 != 0)))
		case OpNow:
			if env == nil || env.Clock == nil {
				return val.Null, fmt.Errorf("pel: f_now with no clock in env")
			}
			st = append(st, val.Time(env.Clock.Now()))
		case OpRand:
			if env == nil || env.Rand == nil {
				return val.Null, fmt.Errorf("pel: f_rand with no rng in env")
			}
			st = append(st, val.Float(env.Rand.Float64()))
		case OpCoinFlip:
			if env == nil || env.Rand == nil {
				return val.Null, fmt.Errorf("pel: f_coinFlip with no rng in env")
			}
			p := pop().AsFloat()
			st = append(st, val.Bool(env.Rand.Float64() < p))
		case OpSha1:
			v := pop()
			st = append(st, val.MakeID(id.Hash(v.AsStr())))
		case OpLocal:
			if env == nil {
				return val.Null, fmt.Errorf("pel: f_localAddr with no env")
			}
			st = append(st, val.Str(env.Local))
		case OpToID:
			if v := st[len(st)-1]; v.Kind() != val.KID {
				st[len(st)-1] = val.MakeID(v.AsID())
			}
		case OpToStr:
			st[len(st)-1] = val.Str(st[len(st)-1].AsStr())
		default:
			return val.Null, fmt.Errorf("pel: unknown opcode %d at pc %d", ins.Op, pc)
		}
	}
	if len(st) == 0 {
		return val.Null, errEmptyStack
	}
	return st[len(st)-1], nil
}

// stackEffect returns how many operands an opcode pops and pushes.
func stackEffect(op Op) (pops, pushes int) {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
		return 2, 1
	case OpSwap:
		return 2, 2
	case OpNeg, OpNot, OpCoinFlip, OpSha1, OpToID, OpToStr:
		return 1, 1
	case OpDup:
		return 1, 2
	case OpPop:
		return 1, 0
	case OpIn:
		return 3, 1
	}
	return 0, 1 // const, field, now, rand, local
}
