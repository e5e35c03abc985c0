package chaos

import (
	"fmt"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/metrics"
)

// DiskConfig parameterizes the seeded disk-fault injector that sits
// under checkpoint/journal writes. Rates are probabilities in [0, 1];
// an all-zero config installs nothing, leaving the write path
// bitwise-identical to a build without the chaos layer.
type DiskConfig struct {
	// Seed keys every injection decision (0 picks a fixed default).
	Seed int64
	// TornRate is the probability a write commits only a seeded prefix
	// of its bytes — the on-disk image a crash between write and sync
	// leaves behind.
	TornRate float64
	// ENOSPCRate is the probability a write fails with ENOSPC before
	// touching the file.
	ENOSPCRate float64
	// BitFlipRate is the probability one seeded bit of the payload is
	// inverted — silent media corruption the CRC ladder must catch.
	BitFlipRate float64
}

// Active reports whether any disk-fault knob is on.
func (c *DiskConfig) Active() bool {
	if c == nil {
		return false
	}
	return rate(c.TornRate) > 0 || rate(c.ENOSPCRate) > 0 || rate(c.BitFlipRate) > 0
}

// Validate rejects rates outside [0, 1]. A nil config is valid (off).
func (c *DiskConfig) Validate() error {
	if c == nil {
		return nil
	}
	return checkRates("disk", []namedRate{
		{"torn", c.TornRate},
		{"enospc", c.ENOSPCRate},
		{"bitflip", c.BitFlipRate},
	})
}

// DiskInjector mutates (or fails) file writes deterministically.
// Decisions are keyed per (seed, file base name, write ordinal at that
// name), so a rewritten journal entry sees fresh but reproducible
// randomness, and the schedule does not depend on which temp directory
// a test mounted the tree under.
type DiskInjector struct {
	cfg DiskConfig

	mu  sync.Mutex
	ops map[string]uint64

	mTorn   *metrics.Counter
	mENOSPC *metrics.Counter
	mFlips  *metrics.Counter
}

// NewDiskInjector builds an injector, or nil when cfg is inactive —
// callers install nil as "no hook", keeping the clean path untouched.
// reg receives skyran_chaos_disk_* counters (nil creates a private
// registry).
func NewDiskInjector(cfg DiskConfig, reg *metrics.Registry) *DiskInjector {
	if !cfg.Active() {
		return nil
	}
	cfg.Seed = keySeed(cfg.Seed)
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &DiskInjector{
		cfg:     cfg,
		ops:     make(map[string]uint64),
		mTorn:   reg.Counter("skyran_chaos_disk_torn_writes_total", "Writes committed with a truncated payload by the disk chaos layer."),
		mENOSPC: reg.Counter("skyran_chaos_disk_enospc_total", "Writes failed with an injected ENOSPC."),
		mFlips:  reg.Counter("skyran_chaos_disk_bitflips_total", "Writes with one payload bit inverted by the disk chaos layer."),
	}
}

// Mutate applies at most one fault to a pending write of data at path:
// an ENOSPC error, a torn (prefix-only) payload, or a single flipped
// bit. The returned slice is the bytes to actually commit; data itself
// is never modified. A nil injector passes everything through.
func (d *DiskInjector) Mutate(path string, data []byte) ([]byte, error) {
	if d == nil {
		return data, nil
	}
	site := filepath.Base(path)
	d.mu.Lock()
	op := d.ops[site]
	d.ops[site] = op + 1
	d.mu.Unlock()

	if draw(d.cfg.Seed, site, op, domENOSPC) < rate(d.cfg.ENOSPCRate) {
		d.mENOSPC.Inc()
		return nil, fmt.Errorf("chaos: writing %s: %w", path, syscall.ENOSPC)
	}
	if draw(d.cfg.Seed, site, op, domTorn) < rate(d.cfg.TornRate) {
		d.mTorn.Inc()
		frac := draw(d.cfg.Seed, site, op, domFrac)
		return data[:int(frac*float64(len(data)))], nil
	}
	if draw(d.cfg.Seed, site, op, domBitFlip) < rate(d.cfg.BitFlipRate) && len(data) > 0 {
		d.mFlips.Inc()
		frac := draw(d.cfg.Seed, site, op, domFrac)
		bit := uint64(frac * float64(len(data)*8))
		out := make([]byte, len(data))
		copy(out, data)
		out[bit/8] ^= 1 << (bit % 8)
		return out, nil
	}
	return data, nil
}
