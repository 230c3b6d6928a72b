package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// TestBadTraceMatchesCleanTrace replays, on every engine, a trace salted
// with updates no engine may see: endpoints past the graph, a self-loop, a
// NaN weight. The run must succeed, report the drops, and print exactly the
// clean trace's answers; under strict every salted batch is skipped.
func TestBadTraceMatchesCleanTrace(t *testing.T) {
	el, err := graph.StandInOR.Build(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := stream.New(el, stream.DefaultConfig(len(el.Arcs), 42))
	if err != nil {
		t.Fatal(err)
	}
	clean := w.Batches(4)
	var salted [][]graph.Update
	for _, b := range clean {
		s := append([]graph.Update{
			graph.Add(5, 99999999, 1),
			graph.Del(graph.VertexID(el.N), 3, 1),
			graph.Add(3, 3, 1),
		}, b...)
		salted = append(salted, append(s, graph.Add(1, 2, math.NaN())))
	}

	trace := filepath.Join(t.TempDir(), "batches.trace")
	replay := func(batches [][]graph.Update, extra ...string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := stream.WriteTrace(&buf, batches); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-dataset", "OR", "-scale", "8", "-seed", "42",
			"-engine", "all", "-batches", "4", "-trace", trace}, extra...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		return out.String()
	}
	answers := regexp.MustCompile(`answer=\S+`)

	want, got := replay(clean), replay(salted)
	if a, b := answers.FindAllString(got, -1), answers.FindAllString(want, -1); len(b) == 0 || !slices.Equal(a, b) {
		t.Fatalf("salted trace answers %v, clean trace %v", a, b)
	}
	if strings.Contains(want, "dropped") {
		t.Fatalf("the clean trace lost updates:\n%s", want)
	}
	if n := strings.Count(got, "dropped 4 invalid update(s)"); n != len(salted) {
		t.Fatalf("%d batches report 4 drops, want %d:\n%s", n, len(salted), got)
	}
	strict := replay(salted, "-sanitize", "strict")
	if n := strings.Count(strict, "skipped:"); n != len(salted) || answers.MatchString(strict) {
		t.Fatalf("strict: %d batches skipped, want %d and no answers:\n%s", n, len(salted), strict)
	}
}
