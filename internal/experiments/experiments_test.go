package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.Percentile(0.5) != 2 && c.Percentile(0.5) != 3 {
		t.Fatalf("median = %v", c.Percentile(0.5))
	}
	if c.Percentile(1.0) != 5 || c.Percentile(0.0) != 1 {
		t.Fatalf("extremes wrong: %v %v", c.Percentile(1.0), c.Percentile(0.0))
	}
	if c.Mean() != 3 {
		t.Fatalf("mean = %v", c.Mean())
	}
	if got := c.FractionBelow(3.5); got != 0.6 {
		t.Fatalf("FractionBelow(3.5) = %v", got)
	}
	empty := NewCDF(nil)
	if !math.IsNaN(empty.Percentile(0.5)) || !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.FractionBelow(1)) {
		t.Fatal("empty CDF should be NaN")
	}
}

// TestPercentileNearestRank pins the nearest rank, the ceil(p·n)-th
// sample, where an index of int(p·n) is one rank high whenever p·n is
// whole and int(p·n)-1 one rank low whenever it is not.
func TestPercentileNearestRank(t *testing.T) {
	upTo := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: NewCDF must sort
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		samples []float64
		p, want float64
	}{
		{"p99.9 of 1000 is the 999th, not the maximum", upTo(1000), 0.999, 999},
		{"p95 of 10 is the 10th", upTo(10), 0.95, 10},
		{"p50 of 4 is the 2nd", upTo(4), 0.5, 2},
		{"p99 of 100 is the 99th", upTo(100), 0.99, 99},
		{"p=0 is the minimum", []float64{3, 1, 2}, 0, 1},
		{"p=1 is the maximum", []float64{3, 1, 2}, 1, 3},
		{"one sample", []float64{7}, 0.5, 7},
		{"empty", nil, 0.5, math.NaN()},
	} {
		got := NewCDF(tc.samples).Percentile(tc.p)
		if got != tc.want && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"paper", "medium", "quick"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSpecComplexityShape(t *testing.T) {
	c := SpecComplexity()
	if c.ChordRules < 40 || c.ChordRules > 60 {
		t.Fatalf("chord rules = %d", c.ChordRules)
	}
	if c.NaradaRules < 16 || c.NaradaRules > 25 {
		t.Fatalf("narada rules = %d", c.NaradaRules)
	}
	// The central claim: the declarative spec is dramatically smaller
	// than equivalent imperative code.
	if c.HandcodedLines < 5*c.ChordRules {
		t.Fatalf("handcoded lines (%d) should dwarf rule count (%d)", c.HandcodedLines, c.ChordRules)
	}
	var buf bytes.Buffer
	c.Print(&buf)
	if !strings.Contains(buf.String(), "OverLog") {
		t.Fatal("print output malformed")
	}
}

// TestFig3QuickShapes runs the static experiment at smoke scale and
// validates the paper's qualitative shapes: logarithmic hops, sub-kB/s
// maintenance bandwidth, latency within the same order of magnitude as
// published numbers, and lookups resolving to true owners.
func TestFig3QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	sc := QuickScale()
	res := RunFig3(sc, 77)
	if len(res.PerSize) != len(sc.StaticSizes) {
		t.Fatal("missing sizes")
	}
	for _, s := range res.PerSize {
		if s.RingCorrectness < 0.95 {
			t.Fatalf("N=%d ring correctness %.2f", s.N, s.RingCorrectness)
		}
		if s.Completed < s.Issued*9/10 {
			t.Fatalf("N=%d completed %d/%d", s.N, s.Completed, s.Issued)
		}
		if s.Correct < s.Completed*9/10 {
			t.Fatalf("N=%d correct %d/%d", s.N, s.Correct, s.Completed)
		}
		expect := math.Log2(float64(s.N)) / 2
		if s.MeanHops > expect*2.5+1 {
			t.Fatalf("N=%d mean hops %.1f vs log2(N)/2=%.1f", s.N, s.MeanHops, expect)
		}
		if s.MaintBPSPerNode <= 0 || s.MaintBPSPerNode > 1024 {
			t.Fatalf("N=%d maintenance %.0f B/s/node", s.N, s.MaintBPSPerNode)
		}
		if s.LatencyCDF.Percentile(0.96) > 6 {
			t.Fatalf("N=%d p96 latency %.1fs exceeds the paper's 6 s envelope", s.N, s.LatencyCDF.Percentile(0.96))
		}
	}
	// Hop counts grow with N.
	if res.PerSize[0].MeanHops > res.PerSize[len(res.PerSize)-1].MeanHops+0.5 {
		t.Fatalf("hops should not shrink with N: %v vs %v",
			res.PerSize[0].MeanHops, res.PerSize[len(res.PerSize)-1].MeanHops)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	checkGolden(t, "fig3-quick-77.txt", buf.String())
	for _, want := range []string{"Figure 3(i)", "Figure 3(ii)", "Figure 3(iii)", "mean"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestFig4QuickShapes churns a small network and validates the
// qualitative claim of Figure 4(ii): consistency degrades as sessions
// shorten.
func TestFig4QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	sc := QuickScale()
	res := RunFig4(sc, 99)
	if len(res.PerSession) != len(sc.SessionsMin) {
		t.Fatal("missing sessions")
	}
	short, long := res.PerSession[0], res.PerSession[len(res.PerSession)-1]
	if short.SessionMin >= long.SessionMin {
		t.Fatal("sessions must be ordered short to long")
	}
	if long.MeanConsistency < 0.6 {
		t.Fatalf("long-session consistency %.2f too low", long.MeanConsistency)
	}
	if short.MeanConsistency > long.MeanConsistency+0.05 {
		t.Fatalf("consistency should degrade with churn: short=%.2f long=%.2f",
			short.MeanConsistency, long.MeanConsistency)
	}
	if short.MaintBPSPerNode <= 0 || long.MaintBPSPerNode <= 0 {
		t.Fatal("no churn maintenance traffic measured")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	checkGolden(t, "fig4-quick-99.txt", buf.String())
	for _, want := range []string{"Figure 4(i)", "Figure 4(ii)", "Figure 4(iii)"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	fp := MeasureFootprint(QuickScale(), 8, 60)
	if fp.BytesPerNode == 0 {
		t.Fatal("no footprint measured")
	}
	// The paper reports ~800 kB per C++ node; our Go node should be
	// the same order of magnitude (well under 8 MB).
	if fp.BytesPerNode > 8<<20 {
		t.Fatalf("footprint %d bytes/node is beyond the same order of magnitude as 800 kB", fp.BytesPerNode)
	}
}
