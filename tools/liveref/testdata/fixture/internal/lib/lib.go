// Package lib declares one function no non-test file references (Dead)
// beside three the check must count as referenced, and two fields no
// non-test file reads (Stats.written, Stats.hits) beside four the
// check must count as read.
package lib

import "strings"

// List is a flag.Value: flag calls Set and String through the interface,
// and nothing names them.
type List []string

func (l *List) Set(s string) error { *l = append(*l, s); return nil }

func (l *List) String() string { return strings.Join(*l, ",") }

type box[T any] struct{ v T }

// get is referenced only through the instantiation box[int].
func (b box[T]) get() T { return b.v }

type conn struct{}

// close is referenced only from lib_other.go, which unix builds leave
// out.
func (conn) close() {}

// Stats holds the fields the check decides on.
type Stats struct {
	written int // set and added to here, read only by lib_test.go
	hits    int // only incremented
	other   int // read only by lib_other.go
	addr    int // read only through its address
}

// Report's fields are read by nothing in the module, but main.go
// re-exports Report by an alias, so its users read them.
type Report struct {
	Total int
}

// key's field is only ever set, but a map keyed by key compares it.
type key struct{ id int }

// Run is main's entry into the package.
func Run() Report {
	_ = box[int]{v: 1}.get()
	s := &Stats{written: 1}
	s.written += 2
	s.hits++
	s.other = 2
	bump(&s.addr)
	platform(conn{}, s)
	_ = map[key]bool{{id: 1}: true}
	return Report{Total: 1}
}

func bump(p *int) { *p++ }

// Dead is referenced by nothing and is the one name the check reports.
func Dead() {}
