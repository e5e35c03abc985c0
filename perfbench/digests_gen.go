package main

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// poolDigests runs every entry of a workload's pool in-process, two at
// a time, checks each result's invariants, and returns pool index →
// digest of its result bytes.
func poolDigests(ctx context.Context, w *workload) (map[string]string, error) {
	out := make([]string, w.pool)
	errs := make([]error, w.pool)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k := 0; k < w.pool; k++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			b, err := unitBytes(w, k, func(spec scenario.Spec) ([]byte, error) { return runBytes(ctx, spec) })
			if err == nil {
				// Every entry must pass the run-time check, digest aside.
				c := &checker{w: w, digests: map[string]string{strconv.Itoa(k): sha(b)}}
				err = c.check(k, b)
			}
			out[k], errs[k] = sha(b), err
		}(k)
	}
	wg.Wait()
	m := make(map[string]string, w.pool)
	for k, d := range out {
		if errs[k] != nil {
			return nil, errs[k]
		}
		m[strconv.Itoa(k)] = d
	}
	return m, nil
}

// unitBytes is pool entry k's result bytes, each scenario run by run:
// the job's canonical result, or the merged document of the campaign's
// seeds as the coordinator builds it.
func unitBytes(w *workload, k int, run func(scenario.Spec) ([]byte, error)) ([]byte, error) {
	if w.campaignSeeds == 0 {
		return run(w.spec(k))
	}
	results := map[int64]json.RawMessage{}
	for _, s := range w.campaignSeedList(k) {
		spec := w.template
		spec.Seed = s
		b, err := run(spec)
		if err != nil {
			return nil, err
		}
		results[s] = b
	}
	tmpl := w.template
	if err := tmpl.Normalize(); err != nil {
		return nil, err
	}
	return cluster.MergeResults(tmpl, results, nil)
}

func runBytes(ctx context.Context, spec scenario.Spec) ([]byte, error) {
	res, _, err := scenario.Run(ctx, spec, scenario.Options{})
	if err != nil {
		return nil, err
	}
	return scenario.MarshalResult(res)
}
