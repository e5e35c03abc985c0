package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// stubResult is a minimal valid scenario result for a one-epoch spec.
func stubResult(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"spec":{"terrain":"FLAT","seed":%d},"epochs":[{"epoch":1}]}`+"\n", seed))
}

// stubDaemon answers the job API for seeds 0..2: seed 0 is throttled
// once before it is accepted, seed 1's job fails, seed 2 returns bytes
// that differ from its digest.
type stubDaemon struct {
	mu        sync.Mutex
	throttled bool
	seeds     map[string]int64
}

func (s *stubDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		var spec scenario.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if spec.Seed == 0 && !s.throttled {
			s.throttled = true
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		id := "j" + strconv.FormatInt(spec.Seed, 10)
		s.seeds[id] = spec.Seed
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"status":"queued"}`, id)
	case strings.HasSuffix(r.URL.Path, "/events"):
		fmt.Fprintln(w, `{"kind":"meta"}`)
	case strings.HasSuffix(r.URL.Path, "/result"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/result")
		switch seed := s.seeds[id]; seed {
		case 1:
			http.Error(w, "job failed without a result", http.StatusGone)
		case 2:
			w.Write(stubResult(99)) //nolint:errcheck
		default:
			w.Write(stubResult(seed)) //nolint:errcheck
		}
	default:
		http.NotFound(w, r)
	}
}

func TestClosedLoopAccounting(t *testing.T) {
	srv := httptest.NewServer(&stubDaemon{seeds: map[string]int64{}})
	defer srv.Close()
	w := &workload{name: "stub", template: scenario.Spec{Terrain: "FLAT", Epochs: 1}, pool: 3}
	chk := &checker{w: w, digests: map[string]string{}}
	for k := 0; k < w.pool; k++ {
		chk.digests[strconv.Itoa(k)] = sha(stubResult(int64(k)))
	}
	cl := newClient(srv.URL, 2)
	defer cl.close()
	var waited []time.Duration
	var mu sync.Mutex
	cl.sleep = func(_ context.Context, d time.Duration) error {
		mu.Lock()
		waited = append(waited, d)
		mu.Unlock()
		return nil
	}
	outs := closedLoop(context.Background(), []int{0, 1, 2}, 2, func(ctx context.Context, pos, k int) (string, []byte, error) {
		return doUnit(ctx, cl, w, 7, pos, k)
	})
	attempted, failed, errs := account(outs, chk.check)
	if attempted != 3 || failed != 2 {
		t.Fatalf("attempted %d failed %d (%v), want 3 and 2", attempted, failed, errs)
	}
	if frac := float64(failed) / float64(attempted); frac != 2.0/3 {
		t.Errorf("error_frac %g", frac)
	}
	if got := cl.retries429.Load(); got != 1 || len(waited) != 1 || waited[0] != time.Second {
		t.Errorf("retries %d after waits %v, want one retry after the 1s Retry-After", got, waited)
	}
	if outs[0].err != nil {
		t.Errorf("throttled unit failed after its retry: %v", outs[0].err)
	}
	if !strings.Contains(outs[1].err.Error(), "410") {
		t.Errorf("failed job reported as %v", outs[1].err)
	}
	if outs[2].err != nil || !strings.Contains(errs[1].Error(), "digest") {
		t.Errorf("digest mismatch reported as %v / %v", outs[2].err, errs)
	}
}

func TestPersistentRejectionFails(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	_, _, err := cl.runJob(context.Background(), scenario.Spec{}, "k")
	if !errors.Is(err, errRejected) {
		t.Fatalf("err = %v, want errRejected", err)
	}
	if calls.Load() != maxRetries+1 || cl.retries429.Load() != maxRetries {
		t.Errorf("%d calls, %d retries; want %d and %d", calls.Load(), cl.retries429.Load(), maxRetries+1, maxRetries)
	}
}

func TestCheckResultInvariants(t *testing.T) {
	spec := scenario.Spec{Seed: 5, Epochs: 1, ServeS: 1}
	good := `{"spec":{"seed":5},"epochs":[{"epoch":1,"traffic":{"kpis":[],"summary":{"offered_bytes":10,"delivered_bytes":10}}}]}`
	if err := checkResult([]byte(good), spec); err != nil {
		t.Errorf("good result rejected: %v", err)
	}
	// A backlog carried into the next serving phase is delivered there.
	carried := `{"spec":{"seed":5},"epochs":[` +
		`{"epoch":1,"traffic":{"kpis":[],"summary":{"offered_bytes":10,"delivered_bytes":4}}},` +
		`{"epoch":2,"traffic":{"kpis":[],"summary":{"offered_bytes":10,"delivered_bytes":14}}}]}`
	if err := checkResult([]byte(carried), scenario.Spec{Seed: 5, Epochs: 2, ServeS: 1}); err != nil {
		t.Errorf("carried backlog rejected: %v", err)
	}
	for name, b := range map[string]string{
		"epoch count":   `{"spec":{"seed":5},"epochs":[]}`,
		"seed":          `{"spec":{"seed":6},"epochs":[{"epoch":1}]}`,
		"over-delivery": `{"spec":{"seed":5},"epochs":[{"epoch":1,"traffic":{"kpis":[],"summary":{"offered_bytes":10,"delivered_bytes":8,"dropped_bytes":3}}}]}`,
		"non-finite":    `{"spec":{"seed":5},"epochs":[{"epoch":1,"throughput_bps":1e999}]}`,
	} {
		if err := checkResult([]byte(b), spec); err == nil {
			t.Errorf("%s: accepted %s", name, b)
		}
	}
}
