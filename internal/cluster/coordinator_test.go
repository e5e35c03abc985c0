package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/server"
)

// campaignTemplate is the smallest interesting sweep unit: FLAT
// terrain with 3 UEs runs one epoch in well under a second on one CPU.
func campaignTemplate(epochs int) scenario.Spec {
	return scenario.Spec{Terrain: "FLAT", UEs: 3, BudgetM: 200, Epochs: epochs, ServeS: 1}
}

type workerD struct {
	srv *server.Server
	ts  *httptest.Server
}

func startWorkerD(t *testing.T) *workerD {
	t.Helper()
	s, err := server.New(server.Config{QueueCap: 16, Workers: 1, JobTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // killed workers may still hold a job
	})
	return &workerD{srv: s, ts: ts}
}

// localExpected computes the campaign merge a single process would
// produce: scenario.Run per seed, canonical bytes, deterministic merge.
func localExpected(t *testing.T, template scenario.Spec, seeds []int64) []byte {
	t.Helper()
	norm := template
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	results := make(map[int64]json.RawMessage, len(seeds))
	for _, seed := range seeds {
		res, _, err := scenario.Run(context.Background(), scenario.SpecForSeed(norm, seed), scenario.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := scenario.MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		results[seed] = b
	}
	merged, err := MergeResults(norm, results, nil)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func awaitCampaign(t *testing.T, cm *Campaign) {
	t.Helper()
	select {
	case <-cm.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("campaign %s did not finish (state %s)", cm.ID, cm.State())
	}
}

// The tentpole golden test: a campaign's merged bytes are identical
// whether run through a 1-worker cluster, a 2-worker cluster with
// single-seed shards, or computed locally with no cluster at all. The
// 2-worker pass goes through the full HTTP path (coordinator API +
// shared client), the 1-worker pass through the Go API.
func TestCampaignByteIdenticalAcrossTopologies(t *testing.T) {
	template := campaignTemplate(2)
	seeds := []int64{11, 12, 13}
	want := localExpected(t, template, seeds)

	// One worker, Go API.
	w1 := startWorkerD(t)
	c1 := newCoordinator(t, Config{WorkerAddrs: []string{w1.ts.URL}, ShardSeeds: 2, PollEvery: 30 * time.Millisecond})
	cm, err := c1.SubmitCampaign(template, seeds)
	if err != nil {
		t.Fatal(err)
	}
	awaitCampaign(t, cm)
	if cm.State() != CampaignSucceeded {
		t.Fatalf("1-worker campaign %s: %s", cm.State(), cm.Err())
	}
	if !bytes.Equal(cm.Merged(), want) {
		t.Error("1-worker merged bytes differ from local single-process merge")
	}

	// Two workers, seed-per-shard, full HTTP round trip. Seeds arrive
	// unsorted and with a duplicate — the coordinator canonicalizes.
	wa, wb := startWorkerD(t), startWorkerD(t)
	c2 := newCoordinator(t, Config{
		WorkerAddrs: []string{wa.ts.URL, wb.ts.URL},
		ShardSeeds:  1,
		PollEvery:   30 * time.Millisecond,
	})
	ts := httptest.NewServer(c2.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	id, err := cl.SubmitCampaign(context.Background(), client.CampaignRequest{
		Spec:  template,
		Seeds: []int64{13, 11, 12, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.AwaitCampaign(context.Background(), id, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "succeeded" {
		t.Fatalf("2-worker campaign %s: %s", st.Status, st.Error)
	}
	if st.Seeds != 3 || st.Merged != 3 {
		t.Fatalf("envelope seeds/merged = %d/%d, want 3/3", st.Seeds, st.Merged)
	}
	got, err := cl.CampaignResult(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("2-worker merged bytes differ from local single-process merge")
	}

	// Both workers actually ran sub-jobs (seed-per-shard round-robin).
	if len(wa.srv.Jobs()) == 0 || len(wb.srv.Jobs()) == 0 {
		t.Errorf("shards not distributed: worker jobs %d/%d", len(wa.srv.Jobs()), len(wb.srv.Jobs()))
	}
}

// Killing a worker mid-campaign must evict it, resteal its shard, and
// still produce byte-identical output: the re-dispatched sub-job
// resumes from the newest intact checkpoint the dead worker left in
// the shared checkpoint directory.
func TestWorkerKillRestealByteIdentical(t *testing.T) {
	template := campaignTemplate(6)
	seeds := []int64{7}
	want := localExpected(t, template, seeds)

	ckptRoot := t.TempDir()
	wa, wb := startWorkerD(t), startWorkerD(t)
	reg := metrics.NewRegistry()
	c := newCoordinator(t, Config{
		WorkerAddrs:    []string{wa.ts.URL, wb.ts.URL}, // round-robin sends the shard to wa first
		ShardSeeds:     1,
		ProbeEvery:     100 * time.Millisecond,
		FailAfter:      2,
		PollEvery:      50 * time.Millisecond,
		CheckpointRoot: ckptRoot,
		Registry:       reg,
		Logf:           t.Logf,
	})
	cm, err := c.SubmitCampaign(template, seeds)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first worker to commit a checkpoint, then kill it.
	seedDir := filepath.Join(ckptRoot, cm.ID, "seed-7")
	deadline := time.Now().Add(time.Minute)
	for {
		if ents, err := os.ReadDir(seedDir); err == nil && hasCheckpoint(ents) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared in %s", seedDir)
		}
		time.Sleep(50 * time.Millisecond)
	}
	wa.ts.CloseClientConnections()
	wa.ts.Close()

	awaitCampaign(t, cm)
	if cm.State() != CampaignSucceeded {
		t.Fatalf("campaign %s: %s", cm.State(), cm.Err())
	}
	if !bytes.Equal(cm.Merged(), want) {
		t.Error("merged bytes after kill+resteal differ from uninterrupted run")
	}
	if v := reg.Counter("skyran_cluster_evicted_total", "").Value(); v < 1 {
		t.Errorf("evicted_total = %v, want >= 1", v)
	}
	if v := reg.Counter("skyran_cluster_resteals_total", "").Value(); v < 1 {
		t.Errorf("resteals_total = %v, want >= 1", v)
	}
	if n := c.HealthyWorkers(); n != 1 {
		t.Errorf("healthy workers = %d, want 1", n)
	}
	// The survivor ran the restolen seed.
	if len(wb.srv.Jobs()) == 0 {
		t.Error("surviving worker never received the restolen shard")
	}
}

func hasCheckpoint(ents []os.DirEntry) bool {
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			return true
		}
	}
	return false
}

// Token-bucket admission answers 429 + Retry-After on the wire, and
// the shared client's deterministic backoff rides through it: the
// second campaign is throttled, waits at least the advertised
// Retry-After, and then succeeds once the bucket refills.
func TestAdmissionThrottlesAndClientRecovers(t *testing.T) {
	w := startWorkerD(t)
	reg := metrics.NewRegistry()
	c := newCoordinator(t, Config{
		WorkerAddrs: []string{w.ts.URL},
		AdmitRate:   1,
		AdmitBurst:  1,
		PollEvery:   30 * time.Millisecond,
		Registry:    reg,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	var retries []time.Duration
	var causes []string
	cl.OnRetry = func(_ int, cause string, delay time.Duration) {
		retries = append(retries, delay)
		causes = append(causes, cause)
	}

	template := campaignTemplate(1)
	id1, err := cl.SubmitCampaign(context.Background(), client.CampaignRequest{Spec: template, SeedBase: 1, SeedCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bucket is now empty: this submission gets throttled first.
	id2, err := cl.SubmitCampaign(context.Background(), client.CampaignRequest{Spec: template, SeedBase: 2, SeedCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(retries) == 0 {
		t.Fatal("second campaign was never throttled")
	}
	for i, d := range retries {
		if d < time.Second {
			t.Errorf("retry %d slept %v, want >= Retry-After (1s)", i, d)
		}
		if !strings.Contains(causes[i], "429") {
			t.Errorf("retry %d cause = %q, want a 429", i, causes[i])
		}
	}
	if v := reg.Counter("skyran_cluster_throttled_total", "").Value(); v < 1 {
		t.Errorf("throttled_total = %v, want >= 1", v)
	}
	for _, id := range []string{id1, id2} {
		st, err := cl.AwaitCampaign(context.Background(), id, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "succeeded" {
			t.Fatalf("campaign %s: %s (%s)", id, st.Status, st.Error)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	c := &Coordinator{}
	c.mRouted = metrics.NewRegistry().Counter("skyran_cluster_routing_decisions_total", "")
	for i := 0; i < 3; i++ {
		c.workers = append(c.workers, &Worker{Addr: "w", Index: i, br: NewBreaker(0, 0, nil), down: make(chan struct{})})
	}
	for i := 0; i < 9; i++ {
		if got := c.pickWorker(nil); got.Index != i%3 {
			t.Fatalf("pick %d = worker %d, want %d", i, got.Index, i%3)
		}
	}
	if v := c.mRouted.Value(); v != 9 {
		t.Fatalf("routing decisions = %v, want 9", v)
	}
}
