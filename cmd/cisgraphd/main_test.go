package main

import (
	"slices"
	"strings"
	"testing"

	"cisgraph/internal/core"
)

// TestParseQueries: -queries takes comma-separated s:d pairs of decimal
// vertex ids, skipping empty entries; every other shape is an error naming
// the entry. Range, s ≠ d and the cap are the query pool's rule, not the
// parser's, so 3:3 and 0:999999 parse.
func TestParseQueries(t *testing.T) {
	qs, err := parseQueries("3:99,,0:7,3:3,0:999999,")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Query{{S: 3, D: 99}, {S: 0, D: 7}, {S: 3, D: 3}, {S: 0, D: 999999}}
	if !slices.Equal(qs, want) {
		t.Fatalf("parsed %v, want %v", qs, want)
	}
	if qs, err := parseQueries(""); err != nil || len(qs) != 0 {
		t.Fatalf("empty list: %v, %v", qs, err)
	}
	for _, bad := range []string{
		"1:2x", "x:2", "1", "1:", ":2", "1:2:3", "-1:2", "1:-2", " 1:2", "1 :2",
		"1:4294967296", // past uint32
		"3:99,1:2x",    // a bad entry after a good one
	} {
		_, err := parseQueries(bad)
		entry := bad[strings.LastIndex(bad, ",")+1:]
		if err == nil || !strings.Contains(err.Error(), `"`+entry+`"`) {
			t.Errorf("parseQueries(%q): err %v, want an error naming %q", bad, err, entry)
		}
	}
}
