package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/scenario"
)

// digests.json holds the SHA-256 of every pool entry's result bytes:
// workload → pool index → hex digest. The bytes are scenario.MarshalResult
// output for jobs and the coordinator's merged document for campaigns.
// Regenerate with -gen-digests only when a change is meant to alter
// results.
//
//go:embed digests.json
var digestFS embed.FS

type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	b, err := digestFS.ReadFile("digests.json")
	if err != nil {
		return nil, err
	}
	var t digestTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checker verifies one workload's result bytes against the committed
// digests and the result invariants.
type checker struct {
	w       *workload
	digests map[string]string
}

func newChecker(w *workload, t digestTable) (*checker, error) {
	d := t[w.name]
	if len(d) != w.pool {
		return nil, fmt.Errorf("digests.json has %d digests for %s, want %d (run -gen-digests)", len(d), w.name, w.pool)
	}
	return &checker{w: w, digests: d}, nil
}

// check is nil when result is the committed bytes of pool entry k and
// every contained scenario result holds its invariants.
func (c *checker) check(k int, result []byte) error {
	if got, want := sha(result), c.digests[strconv.Itoa(k)]; got != want {
		return fmt.Errorf("result digest %.12s, want %.12s", got, want)
	}
	if c.w.campaignSeeds == 0 {
		return checkResult(result, c.w.spec(k))
	}
	var doc struct {
		Seeds   []int64           `json:"seeds"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return fmt.Errorf("decoding campaign: %w", err)
	}
	want := c.w.campaignSeedList(k)
	if len(doc.Seeds) != len(want) || len(doc.Results) != len(want) {
		return fmt.Errorf("campaign has %d seeds and %d results, want %d", len(doc.Seeds), len(doc.Results), len(want))
	}
	for i, s := range want {
		if doc.Seeds[i] != s {
			return fmt.Errorf("campaign seed %d is %d, want %d", i, doc.Seeds[i], s)
		}
		spec := c.w.template
		spec.Seed = s
		if err := checkResult(doc.Results[i], spec); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
	}
	return nil
}

// checkResult checks one scenario result: it decodes (JSON has no
// NaN or infinities and the decoder rejects out-of-range numbers, so
// every number in it is finite), ran the spec's seed and epoch count,
// and delivered no more traffic than was offered. Bearer queues carry
// their backlog from one serving phase into the next, so one epoch may
// deliver more than it offered; conservation holds over the whole job:
// delivered + dropped <= offered.
func checkResult(b []byte, spec scenario.Spec) error {
	var r scenario.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if r.Spec.Seed != spec.Seed {
		return fmt.Errorf("result seed %d, want %d", r.Spec.Seed, spec.Seed)
	}
	if len(r.Epochs) != spec.Epochs {
		return fmt.Errorf("%d epochs, want %d", len(r.Epochs), spec.Epochs)
	}
	var offered, delivered, dropped uint64
	for _, e := range r.Epochs {
		if e.Traffic == nil {
			if spec.Traffic != nil && spec.ServeS > 0 {
				return fmt.Errorf("epoch %d has no traffic report", e.Epoch)
			}
			continue
		}
		s := e.Traffic.Summary
		offered += s.OfferedBytes
		delivered += s.DeliveredBytes
		dropped += s.DroppedBytes
	}
	if delivered+dropped > offered {
		return fmt.Errorf("delivered %d + dropped %d > offered %d bytes", delivered, dropped, offered)
	}
	return nil
}
