package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRounds is how many times a run deploys the daemons and waits for
// the warm-up unit; setup_s is the median. The last deployment is the
// one measured.
const setupRounds = 3

// e2eResult is one untraced run against real daemons.
type e2eResult struct {
	outs      []outcome
	setups    []float64
	cpuS      float64 // daemon CPU over the measured window
	hwmMB     float64 // summed VmHWM at the end
	daemons   int
	workers   int // daemons that run jobs
	retries   int64
	delta     map[string]float64 // /metrics change over the window, summed over processes
	envs      []jobEnvelope      // jobs the workers ran during the window
	attempted int
	failed    int
	errs      []error
}

// jobEnvelope is the part of the daemon's job envelope the ledger uses.
type jobEnvelope struct {
	ID   string `json:"id"`
	Spec struct {
		Seed int64 `json:"seed"`
	} `json:"spec"`
	Status    string    `json:"status"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	worker    int       // index of the daemon that ran it
}

func (e *jobEnvelope) queueS() float64 { return e.Started.Sub(e.Submitted).Seconds() }
func (e *jobEnvelope) runS() float64   { return e.Finished.Sub(e.Started).Seconds() }

// clientsFor is the closed loop's concurrency: two connections against a
// daemon, one researcher waiting on a coordinator.
func clientsFor(w *workload) int {
	if w.campaignSeeds > 0 {
		return 1
	}
	return 2
}

// doUnit runs pool entry k through the API; pos only names the
// submission (the warm-up uses -1).
func doUnit(ctx context.Context, cl *client, w *workload, seed int64, pos, k int) (string, []byte, error) {
	if w.campaignSeeds > 0 {
		return cl.runCampaign(ctx, w.template, w.campaignSeedList(k))
	}
	return cl.runJob(ctx, w.spec(k), fmt.Sprintf("perfbench-%d-%d", seed, pos))
}

// runE2E deploys the workload setupRounds times (timing each until the
// warm-up result is in hand), then drives n measured units through the
// last deployment with a closed loop and collects the daemons' view.
func runE2E(ctx context.Context, w *workload, bin, workdir string, seed int64, n int, chk *checker) (*e2eResult, error) {
	warm, measured := w.units(seed, n)
	r := &e2eResult{}
	var warmErrs []error
	var dep *deployment
	var cl *client
	for i := 0; i < setupRounds; i++ {
		dir := filepath.Join(workdir, fmt.Sprintf("deploy%d", i))
		// A daemon with -checkpoint-dir would resume jobs journaled by an
		// earlier, interrupted run.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := deploy(w, bin, dir)
		if err != nil {
			return nil, err
		}
		c := newClient(d.front.base, clientsFor(w))
		_, res, err := doUnit(ctx, c, w, seed, -1, warm)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if err == nil {
			err = chk.check(warm, res)
		}
		if err != nil {
			warmErrs = append(warmErrs, fmt.Errorf("warm-up %d (pool %d): %w", i, warm, err))
		}
		if i < setupRounds-1 {
			c.close()
			d.stop()
			continue
		}
		dep, cl = d, c
	}
	defer dep.stop()
	defer cl.close()
	r.daemons = len(dep.daemons)

	before, err := scrape(ctx, cl, dep)
	if err != nil {
		return nil, err
	}
	cpu0, err := dep.cpu()
	if err != nil {
		return nil, err
	}
	r.outs = closedLoop(ctx, measured, clientsFor(w), func(ctx context.Context, pos, k int) (string, []byte, error) {
		return doUnit(ctx, cl, w, seed, pos, k)
	})
	cpu1, err := dep.cpu()
	if err != nil {
		return nil, err
	}
	r.cpuS = cpu1 - cpu0
	if r.hwmMB, err = dep.hwm(); err != nil {
		return nil, err
	}
	after, err := scrape(ctx, cl, dep)
	if err != nil {
		return nil, err
	}
	r.delta = map[string]float64{}
	for k, v := range after {
		r.delta[k] = v - before[k]
	}
	r.retries = cl.retries429.Load()

	windowStart := r.outs[0].start
	r.workers = len(dep.workers())
	for wi, d := range dep.workers() {
		b, err := cl.getFrom(ctx, d.base, "/v1/jobs")
		if err != nil {
			return nil, err
		}
		var list struct {
			Jobs []jobEnvelope `json:"jobs"`
		}
		if err := json.Unmarshal(b, &list); err != nil {
			return nil, fmt.Errorf("decoding job list: %w", err)
		}
		for _, e := range list.Jobs {
			// Envelope times have millisecond resolution.
			if !e.Submitted.Before(windowStart.Truncate(time.Millisecond)) {
				e.worker = wi
				r.envs = append(r.envs, e)
			}
		}
	}
	r.attempted, r.failed, r.errs = account(r.outs, chk.check)
	// Each deployment's warm-up unit is an operation too.
	r.attempted += setupRounds
	r.failed += len(warmErrs)
	r.errs = append(warmErrs, r.errs...)
	// Keep only what the ledger needs once results are checked.
	for i := range r.outs {
		r.outs[i].result = nil
	}
	return r, nil
}

// scrape reads /metrics from every process and sums by name.
func scrape(ctx context.Context, cl *client, dep *deployment) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range dep.daemons {
		b, err := cl.getFrom(ctx, d.base, "/metrics")
		if err != nil {
			return nil, err
		}
		m, err := parseMetrics(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// cleanDeployments removes the per-deployment state (checkpoints,
// journals, logs) of a successful run.
func cleanDeployments(workdir string) {
	for i := 0; i < setupRounds; i++ {
		os.RemoveAll(filepath.Join(workdir, fmt.Sprintf("deploy%d", i))) //nolint:errcheck // best effort; the next run clears it too
	}
}
