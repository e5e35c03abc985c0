package chaos

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
)

// NetConfig parameterizes the seeded network-chaos transport. All
// rates are probabilities in [0, 1]; an all-zero config (no rates, no
// partitioned hosts) is inert — NewTransport then returns the base
// transport itself, so the chaos layer is bitwise absent.
type NetConfig struct {
	// Seed keys every injection decision (0 picks a fixed default).
	Seed int64
	// LatencyRate is the probability one request is delayed by a
	// seeded fraction of LatencyMax before being sent.
	LatencyRate float64
	// LatencyMax bounds injected latency (default 200ms when
	// LatencyRate > 0).
	LatencyMax time.Duration
	// ResetRate is the probability a request fails before it is sent,
	// as a dropped/reset connection would.
	ResetRate float64
	// TruncateRate is the probability a response body is cut short,
	// ending in io.ErrUnexpectedEOF — a mid-transfer link loss.
	TruncateRate float64
	// PartitionRate is the probability one request is black-holed
	// entirely (keyed per (seed, endpoint, attempt) like the rest).
	PartitionRate float64
	// PartitionHosts lists endpoints ("host:port") that become fully
	// unreachable — every request errors — once PartitionAfter has
	// elapsed since the transport was built. This is the targeted
	// partition the chaosnet smoke tier uses to cut one worker off
	// mid-campaign.
	PartitionHosts []string
	// PartitionAfter delays the PartitionHosts partition (0 = from the
	// first request).
	PartitionAfter time.Duration
}

// Active reports whether any chaos knob is on.
func (c *NetConfig) Active() bool {
	if c == nil {
		return false
	}
	return rate(c.LatencyRate) > 0 || rate(c.ResetRate) > 0 ||
		rate(c.TruncateRate) > 0 || rate(c.PartitionRate) > 0 ||
		len(c.PartitionHosts) > 0
}

// Validate rejects rates outside [0, 1]. A nil config is valid (off).
func (c *NetConfig) Validate() error {
	if c == nil {
		return nil
	}
	return checkRates("net", []namedRate{
		{"latency", c.LatencyRate},
		{"reset", c.ResetRate},
		{"truncate", c.TruncateRate},
		{"partition", c.PartitionRate},
	})
}

// netError is an injected transport failure; the shared client treats
// it like any other network error (transient, retried under backoff).
type netError struct{ msg string }

func (e *netError) Error() string   { return e.msg }
func (e *netError) Timeout() bool   { return true }
func (e *netError) Temporary() bool { return true }

// Transport is the seeded chaos http.RoundTripper. Decisions are keyed
// per (seed, endpoint host, attempt) where attempt counts requests this
// transport has sent to that host, so a retried call sees fresh — but
// reproducible — randomness.
type Transport struct {
	cfg   NetConfig
	base  http.RoundTripper
	start time.Time
	parts map[string]bool

	mu       sync.Mutex
	attempts map[string]uint64

	mLatency *metrics.Counter
	mResets  *metrics.Counter
	mTruncs  *metrics.Counter
	mParts   *metrics.Counter
}

// NewTransport wraps base (nil selects http.DefaultTransport) with the
// chaos layer. An inactive config returns base unchanged — zero
// schedule, zero layer. reg receives skyran_chaos_net_* counters (nil
// creates a private registry).
func NewTransport(cfg NetConfig, base http.RoundTripper, reg *metrics.Registry) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if !cfg.Active() {
		return base
	}
	cfg.Seed = keySeed(cfg.Seed)
	if cfg.LatencyMax <= 0 {
		cfg.LatencyMax = 200 * time.Millisecond
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	t := &Transport{
		cfg:      cfg,
		base:     base,
		start:    time.Now(),
		parts:    make(map[string]bool, len(cfg.PartitionHosts)),
		attempts: make(map[string]uint64),
		mLatency: reg.Counter("skyran_chaos_net_latency_injections_total", "Requests delayed by the network chaos layer."),
		mResets:  reg.Counter("skyran_chaos_net_resets_total", "Requests failed with an injected connection reset."),
		mTruncs:  reg.Counter("skyran_chaos_net_truncations_total", "Response bodies truncated by the network chaos layer."),
		mParts:   reg.Counter("skyran_chaos_net_partition_drops_total", "Requests black-holed by a network partition."),
	}
	for _, h := range cfg.PartitionHosts {
		t.parts[h] = true
	}
	return t
}

// nextAttempt returns this host's request ordinal (0-based).
func (t *Transport) nextAttempt(host string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.attempts[host]
	t.attempts[host] = n + 1
	return n
}

// RoundTrip injects at most one fault per request, checked in severity
// order: partition, reset, latency (then the request is sent), and
// body truncation on the way back.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	attempt := t.nextAttempt(host)

	if t.parts[host] && time.Since(t.start) >= t.cfg.PartitionAfter {
		t.mParts.Inc()
		return nil, &netError{fmt.Sprintf("chaos: %s partitioned", host)}
	}
	if draw(t.cfg.Seed, host, attempt, domPartition) < rate(t.cfg.PartitionRate) {
		t.mParts.Inc()
		return nil, &netError{fmt.Sprintf("chaos: request to %s dropped (partition)", host)}
	}
	if draw(t.cfg.Seed, host, attempt, domReset) < rate(t.cfg.ResetRate) {
		t.mResets.Inc()
		return nil, &netError{fmt.Sprintf("chaos: connection to %s reset", host)}
	}
	if draw(t.cfg.Seed, host, attempt, domLatency) < rate(t.cfg.LatencyRate) {
		t.mLatency.Inc()
		frac := draw(t.cfg.Seed, host, attempt, domFrac)
		d := time.Duration(frac * float64(t.cfg.LatencyMax))
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	if draw(t.cfg.Seed, host, attempt, domTruncate) < rate(t.cfg.TruncateRate) {
		t.mTruncs.Inc()
		frac := draw(t.cfg.Seed, host, attempt, domFrac)
		keep := int64(1 + frac*1024)
		if resp.ContentLength > 0 {
			keep = 1 + int64(frac*float64(resp.ContentLength-1))
		}
		resp.Body = &truncatedBody{rc: resp.Body, remaining: keep}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// truncatedBody serves a prefix of the real body, then fails like a
// dropped link: io.ErrUnexpectedEOF, never a clean EOF.
type truncatedBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		// The real body ended inside the kept prefix: nothing was
		// actually cut, but the contract is a torn transfer.
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }
