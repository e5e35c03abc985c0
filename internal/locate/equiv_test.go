package locate

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/ranging"
)

// equivCase is one seeded multi-UE localization flight. UE i gets
// n+i tuples, so every case mixes odd and even tuple counts; quantM > 0
// rounds each range to that step, which makes duplicate ranges common.
// Cases named outliers-* add gross late excess to about a fifth of the
// ranges; degenerate-* make UE 0 hover, so its flight has no aperture.
type equivCase struct {
	name   string
	seed   int64
	ues    int
	n      int
	sigma  float64
	quantM float64
	prior  bool
}

var equivCases = []equivCase{
	{"clean-2ue", 1, 2, 40, 0, 0, false},
	{"clean-2ue-prior", 1, 2, 40, 0, 0, true},
	{"noisy-3ue", 2, 3, 61, 4.5, 0, false},
	{"noisy-3ue-prior", 2, 3, 61, 4.5, 0, true},
	{"noisy-6ue", 3, 6, 150, 4.5, 0, false},
	{"noisy-6ue-prior", 3, 6, 150, 4.5, 0, true},
	{"quant-1ue", 4, 1, 9, 3, 5, false},
	{"quant-4ue", 5, 4, 32, 3, 2.5, false},
	{"quant-4ue-prior", 5, 4, 32, 3, 2.5, true},
	{"quant-coarse-5ue", 6, 5, 77, 6, 10, false},
	{"outliers-3ue", 7, 3, 60, 1, 0, false},
	{"outliers-3ue-prior", 7, 3, 60, 1, 0, true},
	{"min-tuples-3ue", 8, 3, 4, 2, 0, false},
	{"degenerate-2ue", 9, 2, 20, 1, 0, false},
}

// flights synthesizes the case's per-UE tuples from its seed.
func (c equivCase) flights() [][]ranging.Tuple {
	rng := rand.New(rand.NewSource(c.seed))
	b := 20 + rng.Float64()*40
	perUE := make([][]ranging.Tuple, c.ues)
	for i := range perUE {
		ue := geom.V2(20+rng.Float64()*220, 20+rng.Float64()*220)
		ts := makeFlight(ue, 1.5, b, c.sigma, c.n+i, rng)
		for j := range ts {
			if c.quantM > 0 {
				ts[j].RangeM = math.Round(ts[j].RangeM/c.quantM) * c.quantM
			}
			if strings.HasPrefix(c.name, "outliers") && rng.Float64() < 0.2 {
				ts[j].RangeM += 60 + rng.ExpFloat64()*80
			}
			if strings.HasPrefix(c.name, "degenerate") && i == 0 {
				ts[j].UAVPos = ts[0].UAVPos // a hovering flight: no aperture
			}
		}
		perUE[i] = ts
	}
	return perUE
}

func (c equivCase) options() Options {
	if c.prior {
		return Options{OffsetPrior: &OffsetPrior{MeanM: 40, SigmaM: 5}}
	}
	return Options{}
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func resultLine(name, kind string, i int, r Result) string {
	return fmt.Sprintf("%s %s %d x=%s y=%s b=%s rms=%s it=%d", name, kind, i,
		bits(r.UE.X), bits(r.UE.Y), bits(r.OffsetM), bits(r.RMSResidualM), r.Iterations)
}

// equivLines runs Solve, SolveJoint and SolveJointRobust on every case
// and renders each output float as its IEEE-754 bit pattern.
func equivLines() []string {
	var out []string
	for _, c := range equivCases {
		perUE, opts := c.flights(), c.options()
		for i, ts := range perUE {
			r, err := Solve(ts, opts)
			if err != nil {
				out = append(out, fmt.Sprintf("%s solve %d err=%v", c.name, i, err))
				continue
			}
			out = append(out, resultLine(c.name, "solve", i, r))
		}
		joint, err := SolveJoint(perUE, opts)
		if err != nil {
			out = append(out, fmt.Sprintf("%s joint err=%v", c.name, err))
		}
		for i, r := range joint {
			out = append(out, resultLine(c.name, "joint", i, r))
		}
		robust, err := SolveJointRobust(perUE, opts)
		if err != nil {
			out = append(out, fmt.Sprintf("%s robust err=%v", c.name, err))
		}
		for i, r := range robust {
			out = append(out, resultLine(c.name, "robust", i, r.Result)+
				fmt.Sprintf(" in=%d out=%d conf=%s", r.Inliers, r.Outliers, bits(r.Confidence)))
		}
	}
	return out
}

// The solvers must reproduce, bit for bit, the outputs recorded in
// testdata/equiv.txt before the offset scan sorted each UE's ranges
// once instead of once per candidate offset.
func TestSolversMatchRecordedBits(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "equiv.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := equivLines()
	if len(got) != len(want) {
		t.Fatalf("got %d result lines, recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d diverged:\nwant %s\ngot  %s", i+1, want[i], got[i])
		}
	}
}
