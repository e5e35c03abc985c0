package traffic

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func TestGammaWeibullDeterministicAndRateAccurate(t *testing.T) {
	const horizon = 60.0
	for _, model := range []Model{ModelGamma, ModelWeibull} {
		spec := normalized(t, Spec{Model: model, RateBps: 1e6})
		t1, b1 := drain(NewSource(spec, 3, 99, horizon))
		t2, b2 := drain(NewSource(spec, 3, 99, horizon))
		if !reflect.DeepEqual(t1, t2) || b1 != b2 {
			t.Fatalf("%s: same (spec, seed, ue) produced different streams", model)
		}
		rate := float64(b1) * 8 / horizon
		if rate < 0.7e6 || rate > 1.3e6 {
			t.Errorf("%s: offered %.0f bps, want ~1e6", model, rate)
		}
		t3, _ := drain(NewSource(spec, 4, 99, horizon))
		if reflect.DeepEqual(t1, t3) {
			t.Errorf("%s: distinct UEs share a stream", model)
		}
	}
}

func TestGammaShapeControlsBurstiness(t *testing.T) {
	// Smaller shape k ⇒ heavier-tailed interarrivals ⇒ larger
	// coefficient of variation (CV² = 1/k for gamma renewal).
	cv := func(shape float64) float64 {
		spec := normalized(t, Spec{Model: ModelGamma, RateBps: 1e6, Shape: shape})
		ts, _ := drain(NewSource(spec, 1, 7, 120))
		var gaps []float64
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, ts[i]-ts[i-1])
		}
		var mean, ss float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			ss += (g - mean) * (g - mean)
		}
		return math.Sqrt(ss/float64(len(gaps))) / mean
	}
	if cv(0.3) <= cv(4) {
		t.Fatalf("gamma CV did not fall with shape: cv(0.3)=%g cv(4)=%g", cv(0.3), cv(4))
	}
}

func TestSpecRejectsBadCohortAndReplayFields(t *testing.T) {
	for _, bad := range []Spec{
		{Model: ModelGamma, Shape: -1},
		{Model: ModelPoisson, Mode: "rewind"},
		{Model: ModelPoisson, Mode: ModeReplay},                                                // replay needs a trace file
		{Model: ModelPoisson, TraceFile: "x"},                                                  // trace file needs replay
		{Cohorts: []Cohort{{Name: "a", Share: 1}}},                                             // cohorts on full-buffer
		{Model: ModelPoisson, Cohorts: []Cohort{{Share: 1}}},                                   // unnamed
		{Model: ModelPoisson, Cohorts: []Cohort{{Name: "a", Share: 1}, {Name: "a", Share: 1}}}, // duplicate
		{Model: ModelPoisson, Cohorts: []Cohort{{Name: "a", Share: 0}}},                        // zero share
		{Model: ModelPoisson, Cohorts: []Cohort{{Name: "a", Share: 1, Model: ModelFullBuffer}}},
		{Model: ModelPoisson, Cohorts: []Cohort{{Name: "a", Share: 1, Diurnal: []Period{{Seconds: 5, Mult: 0}}}}},
		{Model: ModelPoisson, Cohorts: []Cohort{{Name: "a", Share: 1, Flash: &Flash{AtS: 1, Peak: 0.5}}}},
	} {
		s := bad
		if err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted", bad)
		}
	}
	ok := Spec{Model: ModelPoisson, Mode: "generate"}
	if err := ok.Normalize(); err != nil || ok.Mode != ModeGenerate {
		t.Fatalf("mode generate: err=%v mode=%q", err, ok.Mode)
	}
}

func TestApportionCohorts(t *testing.T) {
	cohorts := []Cohort{{Share: 0.5}, {Share: 0.3}, {Share: 0.2}}
	counts := ApportionCohorts(cohorts, 10)
	if !reflect.DeepEqual(counts, []int{5, 3, 2}) {
		t.Fatalf("counts = %v", counts)
	}
	// Largest remainder: 7 UEs over (0.5, 0.3, 0.2) = exact (3.5, 2.1,
	// 1.4): floors (3, 2, 1), one leftover goes to the largest
	// fractional part (cohort 0).
	counts = ApportionCohorts(cohorts, 7)
	if sum(counts) != 7 || !reflect.DeepEqual(counts, []int{4, 2, 1}) {
		t.Fatalf("counts = %v", counts)
	}
	// Equal shares, ties to earlier cohorts; total always preserved.
	counts = ApportionCohorts([]Cohort{{Share: 1}, {Share: 1}, {Share: 1}}, 5)
	if !reflect.DeepEqual(counts, []int{2, 2, 1}) {
		t.Fatalf("tie counts = %v", counts)
	}
	for n := 0; n <= 29; n++ {
		if got := sum(ApportionCohorts(cohorts, n)); got != max(n, 0) {
			t.Fatalf("n=%d apportioned %d", n, got)
		}
	}
	if CohortOf([]int{2, 3}, 0) != 0 || CohortOf([]int{2, 3}, 2) != 1 || CohortOf([]int{2, 3}, 4) != 1 {
		t.Fatal("CohortOf mapping wrong")
	}
}

func sum(xs []int) int {
	var s int
	for _, x := range xs {
		s += x
	}
	return s
}

func TestNewSourcesLegacyPathByteIdentical(t *testing.T) {
	spec := normalized(t, Spec{Model: ModelPoisson, RateBps: 5e5})
	ids := []int{10, 11, 12}
	srcs := NewSources(spec, ids, 77, 20)
	for i, id := range ids {
		want, _ := drain(NewSource(spec, id, 77, 20))
		got, _ := drain(srcs[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("UE %d: cohort-free NewSources diverged from NewSource", id)
		}
	}
}

func TestEnvelopeWarpMatchesCumulativeRate(t *testing.T) {
	c := &Cohort{
		Diurnal: []Period{{Seconds: 10, Mult: 0.5}, {Seconds: 10, Mult: 2}},
		Flash:   &Flash{AtS: 5, Peak: 3, RampS: 2, HoldS: 4, DecayS: 2},
	}
	env := newEnvelope(c, 40)
	if env.flat() {
		t.Fatal("envelope with diurnal+flash reported flat")
	}
	// warp must invert the cumulative work at every breakpoint.
	for i, w := range env.ws {
		if got := env.warp(w); math.Abs(got-env.ts[i]) > 1e-9 {
			t.Fatalf("warp(W(t))=%g, want t=%g", got, env.ts[i])
		}
	}
	// And be monotone between them.
	prev := -1.0
	for w := 0.0; w < env.totalWork(); w += env.totalWork() / 1000 {
		tt := env.warp(w)
		if tt < prev {
			t.Fatalf("warp not monotone at w=%g", w)
		}
		prev = tt
	}
	flat := newEnvelope(&Cohort{}, 40)
	if !flat.flat() || flat.totalWork() != 40 {
		t.Fatalf("empty envelope: flat=%v work=%g", flat.flat(), flat.totalWork())
	}
}

func TestFlashCrowdConcentratesArrivals(t *testing.T) {
	spec := normalized(t, Spec{
		Model: ModelPoisson, RateBps: 4e5,
		Cohorts: []Cohort{{
			Name: "crowd", Share: 1,
			Flash: &Flash{AtS: 10, Peak: 8, RampS: 2, HoldS: 6, DecayS: 2},
		}},
	})
	srcs := NewSources(spec, []int{0, 1, 2, 3}, 5, 30)
	inFlash, total := 0, 0
	for _, s := range srcs {
		ts, _ := drain(s)
		for _, at := range ts {
			total++
			if at >= 10 && at <= 20 {
				inFlash++
			}
		}
	}
	// The flash window is 1/3 of the horizon but carries ~8× rate; well
	// over half of all arrivals must land inside it.
	if total == 0 || float64(inFlash)/float64(total) < 0.5 {
		t.Fatalf("flash window holds %d/%d arrivals", inFlash, total)
	}
}

func TestCohortStreamsIndependent(t *testing.T) {
	// Adding a cohort must not perturb an existing cohort's stream for
	// the UEs that stay in it (streams are keyed by cohort index + UE
	// id, and apportionment keeps cohort 0's block prefix-stable).
	one := normalized(t, Spec{Model: ModelPoisson, RateBps: 1e6,
		Cohorts: []Cohort{{Name: "a", Share: 1}}})
	two := normalized(t, Spec{Model: ModelPoisson, RateBps: 1e6,
		Cohorts: []Cohort{{Name: "a", Share: 1}, {Name: "b", Share: 1}}})
	ids := []int{0, 1, 2, 3}
	s1 := NewSources(one, ids, 9, 10)
	s2 := NewSources(two, ids, 9, 10)
	t1, _ := drain(s1[0])
	t2, _ := drain(s2[0])
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("cohort a's UE 0 stream changed when cohort b was added")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	spec := normalized(t, Spec{Model: ModelPoisson, RateBps: 1e5})
	cap := NewCapture(spec, 0xfeed)
	cap.BeginPhase(2, []TraceUE{{ID: 1, X: 10, Y: 20}, {ID: 2, X: 30, Y: 40}})
	cap.Arrival(Arrival{UE: 0, T: 0.5, Bytes: 100})
	cap.Arrival(Arrival{UE: 1, T: 1.5, Bytes: 200})
	cap.BeginPhase(2, []TraceUE{{ID: 1, X: 11, Y: 21}, {ID: 2, X: 31, Y: 41}})
	cap.Arrival(Arrival{UE: 1, T: 0.25, Bytes: 300})

	path := filepath.Join(t.TempDir(), "trace.skyr")
	if _, err := cap.Trace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fingerprint != 0xfeed || tr.Spec.Model != ModelPoisson {
		t.Fatalf("meta = %+v", tr)
	}
	if !reflect.DeepEqual(tr.Phases, cap.Trace.Phases) {
		t.Fatalf("phases round-trip mismatch:\n%+v\n%+v", tr.Phases, cap.Trace.Phases)
	}

	ph, err := tr.Phase(0)
	if err != nil {
		t.Fatal(err)
	}
	st := ph.Stream()
	if a, ok := st.Pop(1.0); !ok || a.T != 0.5 || a.Bytes != 100 {
		t.Fatalf("pop 1 = %+v %v", a, ok)
	}
	if _, ok := st.Pop(1.0); ok {
		t.Fatal("popped past limit")
	}
	if a, ok := st.Pop(2.0); !ok || a.Bytes != 200 {
		t.Fatalf("pop 2 = %+v %v", a, ok)
	}
	if _, ok := st.Pop(99); ok {
		t.Fatal("popped past end")
	}
	if _, err := tr.Phase(2); err == nil {
		t.Fatal("phase past end accepted")
	}
}

// A trace file is outside input: a well-formed container whose arrivals
// name a UE the phase lacks, carry an impossible packet size, or land
// at a bad time must be rejected at load, never reach the serving loop.
func TestReadTraceFileRejectsBadArrivals(t *testing.T) {
	spec := normalized(t, Spec{Model: ModelPoisson, RateBps: 1e5})
	ok := Arrival{UE: 0, T: 0.5, Bytes: 100}
	for _, tc := range []struct {
		name string
		bad  Arrival
	}{
		{"negative UE", Arrival{UE: -1, T: 1, Bytes: 100}},
		{"UE past the phase", Arrival{UE: 2, T: 1, Bytes: 100}},
		{"empty packet", Arrival{UE: 1, T: 1, Bytes: 0}},
		{"oversized packet", Arrival{UE: 1, T: 1, Bytes: 70000}},
		{"NaN time", Arrival{UE: 1, T: math.NaN(), Bytes: 100}},
		{"infinite time", Arrival{UE: 1, T: math.Inf(1), Bytes: 100}},
		{"negative time", Arrival{UE: 1, T: -0.1, Bytes: 100}},
		{"time past the phase", Arrival{UE: 1, T: 2, Bytes: 100}},
		{"out of order", Arrival{UE: 1, T: 0.25, Bytes: 100}},
	} {
		cap := NewCapture(spec, 0xfeed)
		cap.BeginPhase(2, []TraceUE{{ID: 1}, {ID: 2}})
		cap.Arrival(ok)
		cap.Arrival(tc.bad)
		path := filepath.Join(t.TempDir(), "trace.skyr")
		if _, err := cap.Trace.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTraceFile(path); err == nil {
			t.Errorf("%s: trace with arrival %+v accepted", tc.name, tc.bad)
		}
	}
}
