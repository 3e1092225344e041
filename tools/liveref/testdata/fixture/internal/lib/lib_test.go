package lib

import "testing"

// TestDead references Dead and reads Stats.written; the check counts
// no test file as a reference or a read.
func TestDead(t *testing.T) {
	Dead()
	if s := (Stats{written: 1}); s.written != 1 {
		t.Fatal(s.written)
	}
}
