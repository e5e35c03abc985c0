package chaos

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
)

// DaemonConfig parameterizes the worker daemon's own drills: slow HTTP
// handlers, simulated worker crashes mid-job, and poisoned seeds. They
// exist to prove the recovery ladder under load — a crashed job
// re-enters the resume path and must still produce byte-identical
// results. An all-zero config installs nothing.
type DaemonConfig struct {
	// Seed keys every injection decision (0 picks a fixed default).
	Seed int64
	// SlowRate is the probability an HTTP request is delayed by a
	// seeded fraction of SlowMax before being served.
	SlowRate float64
	// SlowMax bounds the injected handler delay (default 50ms when
	// SlowRate > 0).
	SlowMax time.Duration
	// CrashRate is the probability a worker "crashes" while running a
	// job: the run is aborted after CrashAfter and the job is re-run
	// through the checkpoint-recovery ladder, exactly as a restarted
	// daemon would.
	CrashRate float64
	// CrashAfter is how long a doomed run executes before the
	// simulated crash (default 100ms when CrashRate > 0).
	CrashAfter time.Duration
	// PoisonSeeds lists scenario seeds whose jobs panic mid-run instead
	// of completing — the deterministic stand-in for a simulation bug
	// that only one (spec, seed) point triggers. The per-job recover
	// turns each panic into a failed-job record, and the consecutive-
	// panic quarantine proves one poisoned seed cannot crash the daemon
	// or wedge a campaign.
	PoisonSeeds []int64
}

// Active reports whether any daemon drill is on.
func (c *DaemonConfig) Active() bool {
	if c == nil {
		return false
	}
	return rate(c.SlowRate) > 0 || rate(c.CrashRate) > 0 || len(c.PoisonSeeds) > 0
}

// Validate rejects rates outside [0, 1]. A nil config is valid (off).
func (c *DaemonConfig) Validate() error {
	if c == nil {
		return nil
	}
	return checkRates("daemon", []namedRate{
		{"slow", c.SlowRate},
		{"crash", c.CrashRate},
	})
}

// Daemon makes the daemon drill decisions. Slow-handler draws are
// keyed per (seed, request path, ordinal at that path) and crash draws
// per (seed, spec fingerprint, ordinal at that fingerprint), so whether
// a job crashes depends only on its own spec and how often that spec
// has run here — not on which other jobs arrived first.
type Daemon struct {
	cfg    DaemonConfig
	poison map[int64]bool

	mu  sync.Mutex
	ops map[string]uint64 // per-site ordinals; paths start with "/", fingerprints are hex
}

// NewDaemon builds the drill state, or nil when cfg is nil or inactive.
// Every method treats a nil *Daemon as "no drill".
func NewDaemon(cfg *DaemonConfig) *Daemon {
	if !cfg.Active() {
		return nil
	}
	d := &Daemon{cfg: *cfg, poison: make(map[int64]bool, len(cfg.PoisonSeeds)), ops: make(map[string]uint64)}
	d.cfg.Seed = keySeed(cfg.Seed)
	if d.cfg.SlowMax <= 0 {
		d.cfg.SlowMax = 50 * time.Millisecond
	}
	if d.cfg.CrashAfter <= 0 {
		d.cfg.CrashAfter = 100 * time.Millisecond
	}
	for _, s := range cfg.PoisonSeeds {
		d.poison[s] = true
	}
	return d
}

// next returns site's operation ordinal (0-based).
func (d *Daemon) next(site string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.ops[site]
	d.ops[site] = n + 1
	return n
}

// Poisoned reports whether a job with this scenario seed should panic.
// Unlike the rate-based drills this is not random at all: the same
// seed poisons on every dispatch, which is exactly what makes the
// quarantine ladder testable.
func (d *Daemon) Poisoned(seed int64) bool {
	return d != nil && d.poison[seed]
}

// Crash decides whether the run of the spec with this fingerprint
// should be crashed, and after how long.
func (d *Daemon) Crash(fingerprint uint64) (time.Duration, bool) {
	if d == nil || rate(d.cfg.CrashRate) == 0 {
		return 0, false
	}
	site := fmt.Sprintf("%016x", fingerprint)
	if draw(d.cfg.Seed, site, d.next(site), domCrash) >= rate(d.cfg.CrashRate) {
		return 0, false
	}
	return d.cfg.CrashAfter, true
}

// Handler wraps h with the slow-handler drill, counting each delayed
// request on slowed. With no slow drill it returns h itself.
func (d *Daemon) Handler(h http.Handler, slowed *metrics.Counter) http.Handler {
	if d == nil || rate(d.cfg.SlowRate) == 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		site := r.URL.Path
		op := d.next(site)
		if draw(d.cfg.Seed, site, op, domSlow) < rate(d.cfg.SlowRate) {
			slowed.Inc()
			delay := time.Duration(draw(d.cfg.Seed, site, op, domFrac) * float64(d.cfg.SlowMax))
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
			}
		}
		h.ServeHTTP(w, r)
	})
}
