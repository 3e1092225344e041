package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite every golden under testdata/")

// checkGolden compares got with testdata/name byte for byte. After an
// intended change of output, rewrite the goldens with
//
//	go test ./internal/experiments -run 'Quick|Workload|AcrossShards' -update
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
