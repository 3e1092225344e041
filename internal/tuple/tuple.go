// Package tuple implements P2's basic unit of data transfer.
//
// A Tuple is a named vector of Values. Every tuple that leaves a rule
// strand — a derived head, a stored row, a tuple sent or received — is
// immutable once created, and dataflow elements pass it by reference,
// exactly as the paper describes (§3.3: "tuples in P2 are completely
// immutable once they are created ... reference-counted and passed
// between P2 elements by reference"; Go's garbage collector plays the
// reference-count role). Anything that needs a modified tuple builds a
// new one.
//
// A tuple the hot paths build — a derived head, an aggregate's emission,
// a tuple decoded off the wire — comes from Make as one block holding
// the header and its fields, so it costs one allocation and one object
// for the collector, not two. New, which takes a caller's field slice,
// serves the cold paths.
//
// Working tuples are the one exception: the intermediates a strand
// builds between its event and its head (a join's concatenation, an
// assignment's extension) live in the node's dataflow.Scratch and are
// rewritten in place with Reset. A working tuple is valid only while
// the downstream Push it was handed to runs; an element that needs it
// afterwards copies its fields.
package tuple

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unsafe"

	"p2/internal/val"
)

// Tuple is a named, ordered list of values. By OverLog convention field 0
// is the tuple's location — the address of the node where it lives.
type Tuple struct {
	name   string
	fields []val.Value
}

// New builds a tuple with the given name and fields. The fields slice is
// owned by the tuple afterwards; callers must not mutate it. The header
// and the fields are two objects; a hot path that fills its fields one
// by one uses Make instead.
func New(name string, fields ...val.Value) *Tuple {
	return &Tuple{name: name, fields: fields}
}

// Make returns a tuple named name with n Null fields for the caller to
// fill through Fields before the tuple leaves its hands; it is immutable
// from then on, as every other tuple. Up to the arity of the largest
// shipped rule head (7) the header and the fields are one allocation;
// a wider tuple takes two, as New's do.
func Make(name string, n int) *Tuple {
	if n > 0 && n < len(blocks) {
		return blocks[n](name, n)
	}
	return &Tuple{name: name, fields: make([]val.Value, n)}
}

// block is a tuple header with its fields, an array of Values, behind it.
type block[F any] struct {
	t Tuple
	f F
}

// inBlock allocates a block whose F is [n]val.Value and points the
// header's fields at the array. The header is the block's first field,
// so the tuple pointer keeps the whole block alive.
func inBlock[F any](name string, n int) *Tuple {
	b := &block[F]{}
	b.t.name = name
	b.t.fields = unsafe.Slice((*val.Value)(unsafe.Pointer(&b.f)), n)
	return &b.t
}

// blocks[n] allocates the block of a tuple with n fields.
var blocks = [...]func(string, int) *Tuple{
	nil,
	inBlock[[1]val.Value],
	inBlock[[2]val.Value],
	inBlock[[3]val.Value],
	inBlock[[4]val.Value],
	inBlock[[5]val.Value],
	inBlock[[6]val.Value],
	inBlock[[7]val.Value],
}

// Reset re-points t at name and fields, which t owns afterwards. It is
// for working tuples only (see the package comment): a tuple that has
// left its strand is never reset.
func (t *Tuple) Reset(name string, fields []val.Value) {
	t.name, t.fields = name, fields
}

// Name returns the tuple's relation name.
func (t *Tuple) Name() string { return t.name }

// Arity returns the number of fields.
func (t *Tuple) Arity() int { return len(t.fields) }

// Field returns field i, or Null when out of range (a defensive default:
// planner-generated code never indexes out of range, but hand-written
// element graphs may).
func (t *Tuple) Field(i int) val.Value {
	if i < 0 || i >= len(t.fields) {
		return val.Null
	}
	return t.fields[i]
}

// Fields returns the underlying field slice. Treat it as read-only,
// except to fill a tuple from Make before it leaves the caller's hands.
func (t *Tuple) Fields() []val.Value { return t.fields }

// Loc returns the tuple's location specifier — field 0 as a string
// address. Returns "" for zero-arity tuples.
func (t *Tuple) Loc() string {
	if len(t.fields) == 0 {
		return ""
	}
	return t.fields[0].AsStr()
}

// Equal reports deep equality of name and all fields.
func (t *Tuple) Equal(o *Tuple) bool {
	if t.name != o.name || len(t.fields) != len(o.fields) {
		return false
	}
	for i := range t.fields {
		if !t.fields[i].Equal(o.fields[i]) {
			return false
		}
	}
	return true
}

// Key builds a comparable string key from the given field positions,
// used by table primary keys and secondary indices. Positions out of
// range contribute the null encoding.
func (t *Tuple) Key(positions []int) string {
	return string(t.AppendKey(nil, positions))
}

// AppendKey appends the binary key for the given field positions to b
// and returns the extended buffer. It is the allocation-free form of
// Key: the table probe path renders keys into a reusable scratch buffer
// and looks indices up via map[string(buf)], which Go compiles without
// materializing the string.
func (t *Tuple) AppendKey(b []byte, positions []int) []byte {
	for _, p := range positions {
		b = t.Field(p).AppendBinary(b)
	}
	return b
}

// String renders the tuple as name(field, field, ...).
func (t *Tuple) String() string {
	var sb strings.Builder
	sb.WriteString(t.name)
	sb.WriteByte('(')
	for i, f := range t.fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Marshal encodes the tuple as uvarint nameLen | name | uvarint arity |
// fields, each field in val's AppendBinary encoding. It is the
// on-the-wire format and also what the simulator charges against link
// capacity.
func (t *Tuple) Marshal() []byte {
	return t.AppendMarshal(make([]byte, 0, t.EncodedSize()))
}

// AppendMarshal appends the Marshal encoding to b — exactly
// EncodedSize bytes — and returns the extended buffer. The transport
// encodes each record straight into its datagram with it.
func (t *Tuple) AppendMarshal(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.name)))
	b = append(b, t.name...)
	b = binary.AppendUvarint(b, uint64(len(t.fields)))
	for _, f := range t.fields {
		b = f.AppendBinary(b)
	}
	return b
}

// EncodedSize returns the marshaled size in bytes — the figure used for
// bandwidth accounting in the evaluation harness.
func (t *Tuple) EncodedSize() int {
	n := val.UvarintLen(uint64(len(t.name))) + len(t.name) + val.UvarintLen(uint64(len(t.fields)))
	for _, f := range t.fields {
		n += f.EncodedSize()
	}
	return n
}

// Unmarshal decodes one tuple from b, returning the tuple and bytes
// consumed. b is untrusted (the wire has no checksum): the name length
// and the arity are held to the bytes that remain — a field takes at
// least its kind byte — before anything is allocated.
func Unmarshal(b []byte) (*Tuple, int, error) {
	nameLen, off, err := val.Uvarint(b)
	if err != nil || nameLen > uint64(len(b)-off) {
		return nil, 0, fmt.Errorf("tuple: name length malformed or beyond the %d bytes present", len(b))
	}
	// Relation names are a small closed set; interning keeps every
	// decoded tuple of a relation pointing at one backing array.
	name := val.InternBytes(b[off : off+int(nameLen)])
	off += int(nameLen)
	arity, n, err := val.Uvarint(b[off:])
	off += n
	if err != nil || arity > uint64(len(b)-off) {
		return nil, 0, fmt.Errorf("tuple %s: arity malformed or beyond the %d bytes left", name, len(b)-off)
	}
	t := Make(name, int(arity))
	for i := range t.fields {
		v, n, err := val.DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("tuple %s field %d: %v", name, i, err)
		}
		t.fields[i] = v
		off += n
	}
	return t, off, nil
}
