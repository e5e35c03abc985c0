package cluster

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/scenario"
)

// Deterministic cross-process merge. A campaign's merged output is a
// pure function of (template, seed set, per-seed result bytes): seeds
// in ascending order, each result embedded as the raw canonical bytes
// the worker's result endpoint served — the same bytes `skyranctl
// -json` prints — and the sector order inside each result is already
// pinned by the fleet's canonical merge. Worker count, routing order,
// shard boundaries, eviction and resteal therefore cannot show up in
// the output: any topology yields byte-identical campaigns. The golden
// tests pin exactly that.

// mergedCampaign is the on-the-wire merged document. The campaign ID
// is deliberately absent — it names a run, not a result, and including
// it would break byte-comparison across topologies.
type mergedCampaign struct {
	Spec    scenario.Spec     `json:"spec"`
	Seeds   []int64           `json:"seeds"`
	Results []json.RawMessage `json:"results"`
}

// MergeResults renders the merged campaign document from per-seed
// canonical result bytes plus per-seed error rows (quarantined seeds).
// The template is embedded with Seed zeroed (the per-seed specs live
// inside each result). An errored seed's entry is an explicit
// {"seed": N, "error": ...} row in seed position — deterministic like
// everything else — and with no error rows the output is byte-for-byte
// what the single-map signature produced before rows existed. Every
// seed must have exactly one of a result or an error; a gap or an
// overlap is a coordinator bug and is reported as an error.
func MergeResults(template scenario.Spec, results map[int64]json.RawMessage, seedErrs map[int64]string) ([]byte, error) {
	seeds := make([]int64, 0, len(results)+len(seedErrs))
	for s := range results {
		if _, dup := seedErrs[s]; dup {
			return nil, fmt.Errorf("cluster: seed %d has both a result and an error row", s)
		}
		seeds = append(seeds, s)
	}
	for s := range seedErrs {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	doc := mergedCampaign{Spec: template, Seeds: seeds, Results: make([]json.RawMessage, 0, len(seeds))}
	doc.Spec.Seed = 0
	for _, s := range seeds {
		if msg, ok := seedErrs[s]; ok {
			row, err := json.Marshal(struct {
				Seed  int64  `json:"seed"`
				Error string `json:"error"`
			}{s, msg})
			if err != nil {
				return nil, err
			}
			doc.Results = append(doc.Results, row)
			continue
		}
		b := results[s]
		if len(b) == 0 {
			return nil, fmt.Errorf("cluster: merge missing result for seed %d", s)
		}
		if !json.Valid(b) {
			return nil, fmt.Errorf("cluster: result for seed %d is not valid JSON", s)
		}
		doc.Results = append(doc.Results, b)
	}
	out, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
