package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
)

// startPoisonWorker is startWorkerD with a chaos layer poisoning the
// given seeds: their sub-jobs panic mid-run and come back as failed.
func startPoisonWorker(t *testing.T, seeds ...int64) *workerD {
	t.Helper()
	s, err := server.New(server.Config{
		QueueCap:   16,
		Workers:    1,
		JobTimeout: 2 * time.Minute,
		Chaos:      &chaos.DaemonConfig{PoisonSeeds: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return &workerD{srv: s, ts: ts}
}

// A poisoned seed must not wedge its campaign: the sub-job panics on
// the worker, the recover turns it into a failed job, and the
// coordinator completes the campaign with a deterministic per-seed
// error row in seed position. Two independent cluster runs produce the
// same merged bytes — the row carries no worker identity or timing.
func TestPoisonedSeedCampaignCompletesWithErrorRow(t *testing.T) {
	template := campaignTemplate(1)
	seeds := []int64{41, 42}

	runOnce := func() []byte {
		w := startPoisonWorker(t, 42)
		c := newCoordinator(t, Config{
			WorkerAddrs: []string{w.ts.URL},
			ShardSeeds:  1,
			PollEvery:   30 * time.Millisecond,
		})
		cm, err := c.SubmitCampaign(template, seeds)
		if err != nil {
			t.Fatal(err)
		}
		awaitCampaign(t, cm)
		if cm.State() != CampaignSucceeded {
			t.Fatalf("campaign with poisoned seed: %s (%s)", cm.State(), cm.Err())
		}
		if cm.FailedSeeds() != 1 {
			t.Fatalf("failed seeds = %d, want 1", cm.FailedSeeds())
		}
		return cm.Merged()
	}

	merged := runOnce()
	if !strings.Contains(string(merged), `"error": "panic: chaos: poison seed 42"`) &&
		!strings.Contains(string(merged), `"error":"panic: chaos: poison seed 42"`) {
		t.Errorf("merged doc lacks the deterministic error row:\n%s", merged)
	}
	// The healthy seed's result must still be present.
	if !strings.Contains(string(merged), `"seed": 41`) && !strings.Contains(string(merged), `"seed":41`) {
		t.Errorf("merged doc lacks the healthy seed's result:\n%s", merged)
	}
	if again := runOnce(); !bytes.Equal(merged, again) {
		t.Error("merged bytes with an error row differ between identical runs")
	}
}
