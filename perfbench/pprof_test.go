package main

import (
	"math"
	"os"
	"testing"
)

func TestParseTracesAggregates(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcs := []string{
		"repro/internal/locate.SolveJoint",
		"repro/internal/interference.PlaceMaxMinSINR",
		"repro/internal/rem.(*Map).Interpolate",
		"repro/internal/sim.(*World).ServeTraffic",
	}
	p, err := parseTraces(f, funcs)
	if err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(p.total, 90.09) {
		t.Errorf("total = %g s, want 90.09", p.total)
	}
	for sym, want := range map[string]float64{
		// The first stack has SolveJoint and its closure: counted once.
		"repro/internal/locate.SolveJoint": 0.06,
		// A closure running on an engine worker goroutine counts toward
		// the function that created it.
		"repro/internal/interference.PlaceMaxMinSINR": 0.03,
		"repro/internal/rem.(*Map).Interpolate":       0.02,
		"repro/internal/sim.(*World).ServeTraffic":    0,
	} {
		if got, ok := p.cum[sym]; !ok || !near(got, want) {
			t.Errorf("cum[%s] = %g (present %v), want %g", sym, got, ok, want)
		}
	}
	for pkg, want := range map[string]float64{
		"repro/internal/locate": 0.04,
		"repro/internal/radio":  0.03,
		"repro/internal/rem":    0.02,
		"runtime":               90,
	} {
		if got := p.flat[pkg]; !near(got, want) {
			t.Errorf("flat[%s] = %g, want %g", pkg, got, want)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/rem.(*Map).Interpolate":                 "repro/internal/rem",
		"runtime.mallocgc":                                      "runtime",
		"repro/internal/engine.ParallelMap[go.shape.int].func1": "repro/internal/engine",
	} {
		if got := pkgOf(sym); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{"10ms": 0.01, "1.20s": 1.2, "1.5mins": 90, "250us": 250e-6, "7ns": 7e-9} {
		got, err := parseDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %g, %v; want %g", s, got, err, want)
		}
	}
	if _, err := parseDuration("10 parsecs"); err == nil {
		t.Error("parseDuration accepted a bad unit")
	}
}
