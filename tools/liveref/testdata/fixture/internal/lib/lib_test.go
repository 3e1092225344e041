package lib

import "testing"

// TestDead references Dead; the check counts no test file as a
// reference.
func TestDead(t *testing.T) { Dead() }
