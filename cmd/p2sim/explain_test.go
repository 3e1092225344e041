package main

import (
	"bytes"
	"os"
	"testing"
)

// TestExplainChordMatchesGolden pins the Chord plan every node runs:
// -explain's output must equal testdata/chord.explain byte for byte, so
// any change to the planner's choices, costs or rendering shows up here.
// After an intended plan change, regenerate the file with
//
//	go run ./cmd/p2sim -explain > cmd/p2sim/testdata/chord.explain
func TestExplainChordMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/chord.explain")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	explainChord(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("-explain drifted from testdata/chord.explain:\n--- got\n%s\n--- want\n%s", got.Bytes(), want)
	}
}
