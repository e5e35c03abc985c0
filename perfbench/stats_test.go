package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, p, idx int }{
		{20, 50, 9},
		{21, 52, 10},
		{26, 61, 15},
		{40, 75, 29},
		{80, 87, 69},
		{100, 90, 89},
		{1000, 99, 989},
	} {
		p, idx, ok := tailRank(tc.n)
		if !ok || p != tc.p || idx != tc.idx {
			t.Errorf("tailRank(%d) = p%d idx %d ok %v, want p%d idx %d", tc.n, p, idx, ok, tc.p, tc.idx)
		}
	}
	for n := 11; n <= 500; n++ {
		p, idx, ok := tailRank(n)
		if !ok {
			t.Fatalf("tailRank(%d) found no percentile", n)
		}
		if beyond := n - 1 - idx; beyond < minBeyond {
			t.Fatalf("n=%d p%d leaves %d beyond", n, p, beyond)
		}
		if p < 99 {
			next := int(math.Ceil(float64(p+1)*float64(n)/100)) - 1
			if n-1-next >= minBeyond {
				t.Fatalf("n=%d: p%d also leaves %d beyond; p%d is not the highest", n, p+1, n-1-next, p)
			}
		}
	}
	if _, _, ok := tailRank(10); ok {
		t.Error("tailRank(10) found a percentile with ten samples beyond it")
	}
}

func TestTailAndMedian(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	p, v, ok := tail(xs)
	if !ok || p != 75 || v != 30 {
		t.Errorf("tail = p%d %g %v, want p75 30", p, v, ok)
	}
	if m := median(xs); m != 20.5 {
		t.Errorf("median = %g, want 20.5", m)
	}
	if xs[0] != 40 {
		t.Error("tail or median reordered its input")
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP skyran_checkpoint_writes_total Checkpoint files written.
# TYPE skyran_checkpoint_writes_total counter
skyran_checkpoint_writes_total 5
# TYPE skyran_checkpoint_write_seconds histogram
skyran_checkpoint_write_seconds_bucket{le="0.1"} 3
skyran_checkpoint_write_seconds_sum 0.96
skyran_checkpoint_write_seconds_count 5
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["skyran_checkpoint_writes_total"] != 5 || m["skyran_checkpoint_write_seconds_sum"] != 0.96 || m["skyran_checkpoint_write_seconds_count"] != 5 {
		t.Errorf("parsed %v", m)
	}
	if len(m) != 3 {
		t.Errorf("kept %d samples, want 3 (labelled bucket lines dropped)", len(m))
	}
}
