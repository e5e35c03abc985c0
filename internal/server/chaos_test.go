package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func postJobIdem(t *testing.T, ts *httptest.Server, spec scenario.Spec, key string) (*http.Response, jobEnvelope) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env jobEnvelope
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
	}
	return resp, env
}

// TestIdempotentSubmit: a repeated Idempotency-Key answers with the
// existing job instead of enqueueing a duplicate.
func TestIdempotentSubmit(t *testing.T) {
	s := mustNew(t, Config{QueueCap: 4, Workers: 1, JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, env1 := postJobIdem(t, ts, tinySpec(7), "retry-abc")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp1.StatusCode)
	}
	resp2, env2 := postJobIdem(t, ts, tinySpec(7), "retry-abc")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed submit: status %d, want 200", resp2.StatusCode)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("replayed submit missing Idempotency-Replayed header")
	}
	if env1.ID != env2.ID {
		t.Fatalf("replay returned job %s, want %s", env2.ID, env1.ID)
	}
	// A different key is a different job.
	resp3, env3 := postJobIdem(t, ts, tinySpec(7), "retry-def")
	if resp3.StatusCode != http.StatusAccepted || env3.ID == env1.ID {
		t.Fatalf("distinct key: status %d id %s", resp3.StatusCode, env3.ID)
	}
	if len(s.Jobs()) != 2 {
		t.Fatalf("jobs = %d, want 2", len(s.Jobs()))
	}
}

// TestIdempotencySurvivesRestart: keys are journaled, so a client
// retrying a submission against a restarted daemon still does not
// double-run the job.
func TestIdempotencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir})
	// Never start workers: the job stays queued, like a crash mid-queue.
	if _, _, err := s1.SubmitIdem(tinySpec(7), "boot-42"); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir})
	job, replayed, err := s2.SubmitIdem(tinySpec(7), "boot-42")
	if err != nil {
		t.Fatal(err)
	}
	if !replayed {
		t.Fatal("submission after restart was not replayed")
	}
	if job.ID() != "j1" {
		t.Fatalf("replayed job = %s, want j1", job.ID())
	}
}

// TestSubmitBodyTooLarge: the submission body is capped and oversized
// requests get 413, not an unbounded read.
func TestSubmitBodyTooLarge(t *testing.T) {
	s := mustNew(t, Config{QueueCap: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := append([]byte(`{"terrain":"`), bytes.Repeat([]byte("A"), maxSubmitBytes+1)...)
	big = append(big, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}

// TestJournalCorruptCounted: a mangled journal record is skipped, the
// intact ones recover, and the damage surfaces in /metrics.
func TestJournalCorruptCounted(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir})
	if _, err := s1.Submit(tinySpec(7)); err != nil {
		t.Fatal(err)
	}
	// Corrupt a second record by hand.
	bad := filepath.Join(dir, "journal", "j9.ckpt")
	if err := os.WriteFile(bad, []byte("{torn half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir})
	if _, ok := s2.Get("j1"); !ok {
		t.Fatal("intact journaled job not recovered")
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(string(body), "skyran_journal_corrupt_total 1") {
		t.Fatalf("metrics missing skyran_journal_corrupt_total 1:\n%s", body)
	}
}

// TestJournalBitFlipNotReplayed: one flipped bit inside a journaled
// spec — the silent media corruption -chaos-disk-bitflip injects — must
// make the record corrupt: skipped and counted, never re-enqueued as a
// different spec under the original job ID and idempotency key.
func TestJournalBitFlipNotReplayed(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir})
	if _, _, err := s1.SubmitIdem(tinySpec(7), "flip-1"); err != nil {
		t.Fatal(err)
	}
	recs, err := filepath.Glob(filepath.Join(dir, "journal", "j1.*"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("job record %v, %v", recs, err)
	}
	b, err := os.ReadFile(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(`"seed":`))
	if i < 0 {
		t.Fatal("job record holds no spec seed")
	}
	i += len(`"seed":`)
	for b[i] == ' ' {
		i++
	}
	if b[i] != '7' {
		t.Fatalf("spec seed digit %q, want '7'", b[i])
	}
	b[i] ^= 1 // seed 7 reads as seed 6
	if err := os.WriteFile(recs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	s2 := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir, Registry: reg})
	if j, ok := s2.Get("j1"); ok {
		t.Fatalf("damaged record re-enqueued as j1 with seed %d", j.spec.Seed)
	}
	if v := reg.Counter("skyran_journal_corrupt_total", "").Value(); v != 1 {
		t.Errorf("journal_corrupt_total = %v, want 1", v)
	}
}

// TestChaosCrashByteIdentical: with the chaos layer killing the first
// run of every job, the recovery ladder still delivers result bytes
// identical to a direct fault-free-daemon run — and the crash is
// visible in /metrics.
func TestChaosCrashByteIdentical(t *testing.T) {
	spec := tinySpec(7)
	spec.Epochs = 2
	spec.Faults = &fault.Schedule{SRSDropRate: 0.2, GTPULossRate: 0.1, UEChurnRate: 0.3}

	res, _, err := scenario.Run(context.Background(), spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{
		QueueCap: 2, Workers: 1, JobTimeout: time.Minute,
		CheckpointDir: t.TempDir(),
		Chaos: &chaos.DaemonConfig{
			Seed:       11,
			CrashRate:  1,
			CrashAfter: 300 * time.Millisecond,
		},
	})
	s.Start()
	defer s.Shutdown(context.Background()) //nolint:errcheck

	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.State(); st != JobSucceeded {
		t.Fatalf("job state %s: %s", st, job.errMsg)
	}
	job.mu.Lock()
	got := job.resultJSON
	job.mu.Unlock()
	if !bytes.Equal(want, got) {
		t.Fatal("crashed-and-recovered job result differs from direct run")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "skyrand_worker_crashes_total 1") {
		t.Fatalf("metrics missing skyrand_worker_crashes_total 1:\n%s", body)
	}
	// The faulty spec must also have fed the per-kind fault counters.
	if !strings.Contains(string(body), "skyran_fault_") {
		t.Fatal("metrics missing skyran_fault_* counters for a faulty job")
	}
}

// TestChaosSlowHandlers: the latency layer delays but never breaks a
// request.
func TestChaosSlowHandlers(t *testing.T) {
	s := mustNew(t, Config{QueueCap: 2, Workers: 1, Chaos: &chaos.DaemonConfig{
		Seed:     5,
		SlowRate: 1,
		SlowMax:  5 * time.Millisecond,
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		code, _ := getBody(t, ts.URL+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz under chaos: %d", code)
		}
	}
	// Rate 1 slows every request, the /metrics scrape included.
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "skyrand_chaos_slow_handlers_total 4") {
		t.Fatalf("metrics missing skyrand_chaos_slow_handlers_total 4:\n%s", body)
	}
}

// TestZeroChaosServesBareMux: an absent or all-zero drill config
// builds no drill state and installs no middleware.
func TestZeroChaosServesBareMux(t *testing.T) {
	for _, cfg := range []*chaos.DaemonConfig{nil, {}, {Seed: 99, SlowMax: time.Second, CrashAfter: time.Second}} {
		s := mustNew(t, Config{QueueCap: 2, Workers: 1, Chaos: cfg})
		if s.chaos != nil {
			t.Fatalf("config %+v built drill state", cfg)
		}
		if _, ok := s.Handler().(*http.ServeMux); !ok {
			t.Fatalf("config %+v wrapped the mux: %T", cfg, s.Handler())
		}
	}
}

// TestChaosCrashIndependentOfArrivalOrder: a job's crash is keyed on
// its own spec, so two daemons with the same chaos seed fed the same
// specs in opposite orders crash the same specs and return the same
// bytes.
func TestChaosCrashIndependentOfArrivalOrder(t *testing.T) {
	const chaosSeed = 3
	specs := make([]scenario.Spec, 4)
	for i := range specs {
		specs[i] = tinySpec(int64(20 + i))
		specs[i].Epochs = 2
	}
	// The drill's own decisions for one pass over the specs; a mix of
	// crashed and spared specs keeps the comparison meaningful.
	predict := chaos.NewDaemon(&chaos.DaemonConfig{Seed: chaosSeed, CrashRate: 0.5})
	wantCrash := make(map[int64]bool)
	for _, sp := range specs {
		fp, err := scenario.Fingerprint(sp)
		if err != nil {
			t.Fatal(err)
		}
		_, wantCrash[sp.Seed] = predict.Crash(fp)
	}
	if n := len(specs); countTrue(wantCrash) == 0 || countTrue(wantCrash) == n {
		t.Fatalf("chaos seed %d crashes %d of %d specs; pick a seed that mixes", chaosSeed, countTrue(wantCrash), n)
	}

	run := func(order []scenario.Spec) (map[int64]bool, map[int64][]byte) {
		reg := metrics.NewRegistry()
		s := mustNew(t, Config{
			QueueCap: len(order), Workers: 1, JobTimeout: time.Minute,
			CheckpointDir: t.TempDir(), Registry: reg,
			Chaos: &chaos.DaemonConfig{Seed: chaosSeed, CrashRate: 0.5, CrashAfter: time.Millisecond},
		})
		s.Start()
		defer s.Shutdown(context.Background()) //nolint:errcheck
		crashes := reg.Counter("skyrand_worker_crashes_total", "")
		crashed, results := make(map[int64]bool), make(map[int64][]byte)
		for _, sp := range order {
			before := crashes.Value()
			job, err := s.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, job)
			if st := job.State(); st != JobSucceeded {
				t.Fatalf("seed %d: state %s: %s", sp.Seed, st, job.errMsg)
			}
			crashed[sp.Seed] = crashes.Value() > before
			job.mu.Lock()
			results[sp.Seed] = job.resultJSON
			job.mu.Unlock()
		}
		return crashed, results
	}
	reversed := make([]scenario.Spec, len(specs))
	for i, sp := range specs {
		reversed[len(specs)-1-i] = sp
	}
	crashA, resA := run(specs)
	crashB, resB := run(reversed)
	for _, sp := range specs {
		if crashA[sp.Seed] != wantCrash[sp.Seed] || crashB[sp.Seed] != wantCrash[sp.Seed] {
			t.Errorf("seed %d crashed %v (forward) / %v (reversed), drill decided %v",
				sp.Seed, crashA[sp.Seed], crashB[sp.Seed], wantCrash[sp.Seed])
		}
		if !bytes.Equal(resA[sp.Seed], resB[sp.Seed]) {
			t.Errorf("seed %d: result bytes differ between arrival orders", sp.Seed)
		}
	}
}

func countTrue(m map[int64]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}
