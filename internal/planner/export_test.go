package planner

// Fixtures returns the programs the planner's own tests compile — the
// Chord lookup rules and every diagnostic case — as seeds for the
// external FuzzCompile.
func Fixtures() []string {
	out := []string{chordLookupSrc}
	for _, c := range diagnosticCases {
		out = append(out, c.src)
	}
	return out
}
