// Package chaos injects deterministic failures into the two domains
// field deployments report as dominant — the network between
// coordinator and workers, and the disk under checkpoints and journals
// — plus the worker daemon's own drills: slow handlers, simulated
// crashes mid-job and poisoned seeds. Every injection decision is a
// pure function of (seed, site, attempt) — the same splitmix64-keyed
// discipline internal/fault uses for radio faults — so a chaos run
// replays exactly under a fixed seed, and an all-zero schedule is
// bitwise-identical to running with no chaos layer at all.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
)

// drawDomain separates the independent decision streams so that, e.g.,
// raising the reset rate never shifts which requests see latency.
type drawDomain uint64

const (
	domLatency drawDomain = iota + 1
	domReset
	domTruncate
	domPartition
	domTorn
	domENOSPC
	domBitFlip
	domFrac // secondary draw: delay fraction, cut point, flipped bit
	domSlow
	domCrash
)

// keySeed substitutes the fixed default for an unset (zero) seed.
func keySeed(seed int64) int64 {
	if seed == 0 {
		return 0x5eed
	}
	return seed
}

// splitmix64 is the finalizer used across the repo's seeded streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4b28f966dd52d
	return x ^ (x >> 31)
}

// draw maps (seed, site, attempt, domain) to a uniform float64 in
// [0, 1). site names the injection point (an endpoint host, a file
// name); attempt counts prior operations at that site, so retries and
// later writes see fresh, but still reproducible, randomness.
func draw(seed int64, site string, attempt uint64, dom drawDomain) float64 {
	h := fnv.New64a()
	h.Write([]byte(site)) //nolint:errcheck // fnv never errors
	x := splitmix64(uint64(seed) ^ splitmix64(h.Sum64()^splitmix64(attempt^uint64(dom)<<56)))
	return float64(x>>11) / float64(1<<53)
}

// rate clamps a configured probability into [0, 1].
func rate(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return 0
	}
	return math.Min(p, 1)
}

// namedRate is one configured probability and its name for errors.
type namedRate struct {
	name string
	v    float64
}

// checkRates rejects any rate that is not a probability in [0, 1]:
// NaN and ±Inf included, which a bare range test would let through.
func checkRates(domain string, rates []namedRate) error {
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("chaos: %s %s rate %g outside [0, 1]", domain, r.name, r.v)
		}
	}
	return nil
}
