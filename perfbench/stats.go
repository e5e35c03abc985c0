package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported tail value.
const minBeyond = 10

// tailRank returns the highest whole percentile p whose nearest-rank
// value x[idx] (idx = ceil(p/100*n)-1 over the sorted samples) leaves at
// least minBeyond samples above it. ok is false when no percentile does.
func tailRank(n int) (p, idx int, ok bool) {
	for p = 99; p >= 1; p-- {
		idx = int(math.Ceil(float64(p)*float64(n)/100)) - 1
		if idx >= 0 && n-1-idx >= minBeyond {
			return p, idx, true
		}
	}
	return 0, 0, false
}

// median of xs (mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the tailRank percentile of xs and its value.
func tail(xs []float64) (p int, v float64, ok bool) {
	p, idx, ok := tailRank(len(xs))
	if !ok {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return p, s[idx], true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// parseMetrics reads the daemon's /metrics text into name → value,
// keeping unlabelled samples (counters, gauges, histogram _sum/_count).
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}
