package main

import "testing"

// sets builds one summary per value of upd_per_s on ingest-durable.
func sets(values ...float64) []*summary {
	var out []*summary
	for _, v := range values {
		out = append(out, &summary{EndToEnd: map[string]map[string]metric{
			"ingest-durable": {"upd_per_s": {Value: v, Unit: "1/s"}},
		}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	bj := testSpec(t)
	bound := 0.0
	for _, m := range bj.EndToEnd {
		if m.Name == "upd_per_s" {
			bound = m.Bound
		}
	}
	if bound <= 0 || bound > 0.25 {
		t.Fatalf("upd_per_s bound %v: want in (0, 0.25]", bound)
	}
	base := sets(100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name  string
		other []*summary
		want  string
	}{
		{"same", sets(100, 100, 101, 99, 100), "same"},
		{"worse", sets(100*(1-bound)-3, 100*(1-bound)-2, 100*(1-bound)-4), "worse"}, // higher is better
		{"better", sets(110, 111, 109), "better"},
		{"unresolved", sets(100, 100*(1+2*bound), 100*(1-bound), 100*(1+3*bound), 100), "unresolved"},
	} {
		rows := compareSets(bj, base, tc.other)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", tc.name, len(rows))
		}
		if rows[0].verdict != tc.want {
			t.Errorf("%s: verdict %q (ratio %.3f), want %q", tc.name, rows[0].verdict, rows[0].ratio, tc.want)
		}
	}
}
