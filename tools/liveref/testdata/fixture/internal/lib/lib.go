// Package lib declares one function no non-test file references (Dead)
// beside three the check must count as referenced.
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

// Run is main's entry into the package.
func Run() {
	_ = box[int]{v: 1}.get()
	platform(conn{})
}

// Dead is referenced by nothing and is the one name the check reports.
func Dead() {}
