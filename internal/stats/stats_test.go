package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCountersBasic(t *testing.T) {
	c := NewCounters()
	if got := c.Get(CntRelax); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
	c.Inc(CntRelax)
	c.Add(CntRelax, 4)
	if got := c.Get(CntRelax); got != 5 {
		t.Fatalf("relax = %d, want 5", got)
	}
	c.Set(CntSPMHit, 42)
	if got := c.Get(CntSPMHit); got != 42 {
		t.Fatalf("set = %d, want 42", got)
	}
}

func TestCountersZeroValueUsable(t *testing.T) {
	var c Counters
	c.Inc("x")
	if c.Get("x") != 1 {
		t.Fatal("zero-value Counters not usable")
	}
}

func TestCountersHandleSharesCellWithStringAPI(t *testing.T) {
	c := NewCounters()
	h := c.Handle(CntRelax)
	h.Inc()
	h.Add(4)
	if got := c.Get(CntRelax); got != 5 {
		t.Fatalf("string view after handle increments = %d, want 5", got)
	}
	c.Inc(CntRelax)
	if got := h.Value(); got != 6 {
		t.Fatalf("handle view after string increment = %d, want 6", got)
	}
	if snap := c.Snapshot(); snap[CntRelax] != 6 {
		t.Fatalf("snapshot = %v", snap)
	}
	if h2 := c.Handle(CntRelax); h2.ID() != h.ID() {
		t.Fatalf("re-resolved handle id %d != %d", h2.ID(), h.ID())
	}
}

func TestCountersHandleIDsDense(t *testing.T) {
	c := NewCounters()
	names := []string{"z", "a", "m", "q"}
	for i, n := range names {
		if id := c.Handle(n).ID(); id != int32(i) {
			t.Fatalf("handle %q id = %d, want registration order %d", n, id, i)
		}
	}
	// Re-resolution must not mint new ids.
	if id := c.Handle("a").ID(); id != 1 {
		t.Fatalf("re-resolved id = %d, want 1", id)
	}
}

func TestCountersHandleSurvivesReset(t *testing.T) {
	c := NewCounters()
	h := c.Handle("x")
	h.Add(7)
	c.Reset()
	if h.Value() != 0 {
		t.Fatal("Reset must zero the handled cell")
	}
	h.Inc()
	if c.Get("x") != 1 {
		t.Fatal("handle detached from cell after Reset")
	}
}

func TestCountersHandleManyCellsSpanChunks(t *testing.T) {
	// More names than one arena chunk: every handle must keep its own cell.
	c := NewCounters()
	const n = 3 * arenaChunk / 2
	hs := make([]Handle, n)
	for i := range hs {
		hs[i] = c.Handle(string(rune('A'+i%26)) + string(rune('0'+i/26)))
		hs[i].Add(int64(i))
	}
	for i, h := range hs {
		if h.Value() != int64(i) {
			t.Fatalf("cell %d = %d, want %d (arena chunk moved?)", i, h.Value(), i)
		}
	}
}

func TestCountersHandleZeroAllocSteadyState(t *testing.T) {
	c := NewCounters()
	h := c.Handle(CntRelax)
	if allocs := testing.AllocsPerRun(200, func() { h.Inc(); h.Add(2) }); allocs != 0 {
		t.Fatalf("handle increments allocate: %v allocs/op", allocs)
	}
}

func TestCountersHandleConcurrent(t *testing.T) {
	c := NewCounters()
	h := c.Handle("hot")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Inc()
				c.Inc("hot") // string facade races against the handle safely
			}
		}()
	}
	wg.Wait()
	if got := c.Get("hot"); got != 16000 {
		t.Fatalf("concurrent total = %d, want 16000", got)
	}
}

func TestCountersReset(t *testing.T) {
	c := NewCounters()
	c.Add("a", 10)
	c.Reset()
	if c.Get("a") != 0 {
		t.Fatal("Reset did not zero counter")
	}
	names := c.Names()
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("Names after reset = %v, want [a]", names)
	}
}

func TestCountersNamesSorted(t *testing.T) {
	c := NewCounters()
	c.Inc("zz")
	c.Inc("aa")
	c.Inc("mm")
	names := c.Names()
	want := []string{"aa", "mm", "zz"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestCountersSnapshotAndDiff(t *testing.T) {
	c := NewCounters()
	c.Add("a", 3)
	snap := c.Snapshot()
	c.Add("a", 2)
	c.Add("b", 7)
	d := c.Diff(snap)
	if d["a"] != 2 || d["b"] != 7 {
		t.Fatalf("Diff = %v, want a=2 b=7", d)
	}
	if snap["a"] != 3 {
		t.Fatal("Snapshot must be a copy, not a view")
	}
}

func TestCountersString(t *testing.T) {
	c := NewCounters()
	c.Add("b", 2)
	c.Add("a", 1)
	if got, want := c.String(), "a=1 b=2"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestGeoMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 8}, 4},
		{[]float64{10}, 10},
		{nil, 0},
	}
	for _, tc := range cases {
		if got := GeoMean(tc.in); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("GeoMean(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestGeoMeanSkipsNaNAndClampsZero(t *testing.T) {
	got := GeoMean([]float64{4, math.NaN(), 4})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean with NaN = %v, want 4", got)
	}
	if g := GeoMean([]float64{0, 1}); g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		t.Fatalf("GeoMean with zero = %v, want finite positive", g)
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			x := math.Abs(r)
			if x < 1e-6 || x > 1e6 || math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		lo, hi := MinMax(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMedianMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2 {
		t.Fatalf("Median = %v", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even-length median broken")
	}
	lo, hi := MinMax(xs)
	if lo != 1 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	if xs[0] != 3 {
		t.Fatal("Median must not reorder input")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestRatioAndPercent(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("Ratio")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio by zero should be 0")
	}
	if Percent(25, 100) != 25 {
		t.Fatal("Percent")
	}
	if Percent(1, 0) != 0 {
		t.Fatal("Percent of zero total should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Algo", "Speedup")
	tb.AddRow("PPSP", "7.7×")
	tb.AddRow("PPWP", "81.2×")
	s := tb.String()
	for _, want := range []string{"Demo", "Algo", "PPSP", "81.2×"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q in:\n%s", want, s)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| PPSP |") || !strings.Contains(md, "| --- |") {
		t.Fatalf("Markdown malformed:\n%s", md)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "extra")
	s := tb.String()
	if !strings.Contains(s, "extra") {
		t.Fatalf("long row truncated:\n%s", s)
	}
	md := tb.Markdown()
	if strings.Count(strings.Split(md, "\n")[0], "|") != 4 {
		t.Fatalf("markdown header should have 3 columns:\n%s", md)
	}
}

func TestAddRowf(t *testing.T) {
	tb := NewTable("", "Name", "Value")
	tb.AddRowf("%s\t%d", "n", 42)
	if !strings.Contains(tb.String(), "42") {
		t.Fatal("AddRowf lost value")
	}
}

func TestFormatSpeedup(t *testing.T) {
	if got := FormatSpeedup(7.66); got != "7.7×" {
		t.Fatalf("FormatSpeedup(7.66) = %q", got)
	}
	if got := FormatSpeedup(0.93); got != "0.93×" {
		t.Fatalf("FormatSpeedup(0.93) = %q", got)
	}
}
