package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// workload is one input family. Every unit of work (a job, or on sweep a
// campaign) comes from a fixed pool whose result digests are committed in
// digests.json; the workload seed only chooses which pool entries a run
// measures and in what order, so every run's outputs can be checked.
type workload struct {
	name string
	// template is the scenario spec; pool entry k runs it with scenario
	// seed seedBase+k (on sweep, campaign k covers the campaignSeeds seeds
	// starting at seedBase+k*campaignSeeds).
	template scenario.Spec
	seedBase int64
	pool     int
	// rate is the nominal number of units per second on the reference
	// host (2 cores): a run of S seconds measures round(rate*S) units, so
	// the sample count, and with it the tail percentile, is fixed.
	rate float64
	// campaignSeeds > 0 makes the unit a campaign on a coordinator with
	// two single-runner workers instead of a job on one daemon.
	campaignSeeds int
	// runners is each daemon's -workers value.
	runners int
	// checkpoint runs the daemon with -checkpoint-dir, and the traced
	// pass with the same checkpoint configuration.
	checkpoint bool
	// coordArgs are appended to the coordinator's command line (sweep).
	coordArgs []string
}

// Why each workload exists is recorded in README.md and BENCHMARK.json.
var workloads = []*workload{
	{
		name: "epoch",
		template: scenario.Spec{Terrain: "CAMPUS", UEs: 3, Controller: "skyran",
			BudgetM: 200, Epochs: 2},
		seedBase:   1_000,
		pool:       96,
		rate:       1.1,
		runners:    2,
		checkpoint: true,
	},
	{
		name: "serve",
		template: scenario.Spec{Terrain: "FLAT", UEs: 2000, Controller: "random", Epochs: 1, ServeS: 2,
			Traffic: &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 100e3}},
		seedBase: 2_000,
		pool:     96,
		rate:     2.6,
		runners:  2,
	},
	{
		name: "fleet",
		template: scenario.Spec{Terrain: "CAMPUS", UEs: 60, Epochs: 3, ServeS: 2,
			Cells: 4, MobilityMS: 3,
			Traffic: &traffic.Spec{Model: traffic.ModelPoisson, RateBps: 100e3}},
		seedBase: 3_000,
		pool:     96,
		rate:     2.1,
		runners:  2,
	},
	{
		name: "sweep",
		template: scenario.Spec{Terrain: "FLAT", UEs: 3, Controller: "random", Epochs: 1, ServeS: 1,
			Traffic: &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 100e3}},
		seedBase:      4_000,
		pool:          256,
		rate:          8,
		campaignSeeds: 2,
		runners:       1,
		// One single-seed shard per worker: a seed takes ~25 ms, well
		// inside the coordinator's 100 ms sub-job poll, so campaign time
		// is one poll plus the cluster's own overhead rather than
		// straddling a poll boundary.
		coordArgs: []string{"-shard-seeds", "1"},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seedsPerUnit is how many scenario runs one unit stands for.
func (w *workload) seedsPerUnit() int {
	if w.campaignSeeds > 0 {
		return w.campaignSeeds
	}
	return 1
}

// spec is pool entry k's job spec (jobs only).
func (w *workload) spec(k int) scenario.Spec {
	s := w.template
	if s.Traffic != nil {
		t := *s.Traffic
		s.Traffic = &t
	}
	s.Seed = w.seedBase + int64(k)
	return s
}

// campaignSeedList is pool entry k's seed list (campaigns only).
func (w *workload) campaignSeedList(k int) []int64 {
	seeds := make([]int64, w.campaignSeeds)
	for i := range seeds {
		seeds[i] = w.seedBase + int64(k*w.campaignSeeds+i)
	}
	return seeds
}

// units returns the pool indices a run with this workload seed uses:
// the warm-up unit first, then n measured units. It walks a seeded
// permutation of the pool, wrapping round when n+1 exceeds the pool.
func (w *workload) units(seed int64, n int) (warmup int, measured []int) {
	perm := rand.New(rand.NewSource(seed)).Perm(w.pool)
	measured = make([]int, n)
	for i := range measured {
		measured[i] = perm[(i+1)%w.pool]
	}
	return perm[0], measured
}

// unitsFor is the measured unit count of a run of the given length.
func (w *workload) unitsFor(seconds float64) int {
	return max(minUnits, int(math.Round(w.rate*seconds)))
}

// minUnits keeps at least one percentile above the median with ten
// samples beyond it (see tailRank).
const minUnits = 21
