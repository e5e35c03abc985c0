package chaos

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
)

func render(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("rendering metrics: %v", err)
	}
	return buf.String()
}

func TestDrawDeterministicAndUniform(t *testing.T) {
	a := draw(42, "w1:8080", 3, domReset)
	b := draw(42, "w1:8080", 3, domReset)
	if a != b {
		t.Fatalf("same key drew %v then %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Fatalf("draw out of [0,1): %v", a)
	}
	// Different domains, attempts, sites and seeds must decorrelate.
	for name, other := range map[string]float64{
		"domain":  draw(42, "w1:8080", 3, domLatency),
		"attempt": draw(42, "w1:8080", 4, domReset),
		"site":    draw(42, "w2:8080", 3, domReset),
		"seed":    draw(43, "w1:8080", 3, domReset),
	} {
		if other == a {
			t.Errorf("changing %s did not change the draw", name)
		}
	}
}

func TestAllZeroNetConfigIsBitwiseNoop(t *testing.T) {
	base := http.DefaultTransport
	if got := NewTransport(NetConfig{}, base, nil); got != base {
		t.Fatalf("all-zero config wrapped the transport: %T", got)
	}
	if got := NewTransport(NetConfig{Seed: 99}, base, nil); got != base {
		t.Fatalf("seed-only config wrapped the transport: %T", got)
	}
	if inj := NewDiskInjector(DiskConfig{Seed: 99}, nil); inj != nil {
		t.Fatalf("all-zero disk config built an injector")
	}
	var nilInj *DiskInjector
	in := []byte("payload")
	out, err := nilInj.Mutate("/x/file", in)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("nil injector mutated the write: %q %v", out, err)
	}
}

func TestAllZeroDaemonConfigIsInert(t *testing.T) {
	for _, cfg := range []*DaemonConfig{nil, {}, {Seed: 99, SlowMax: time.Second, CrashAfter: time.Second}} {
		if d := NewDaemon(cfg); d != nil {
			t.Fatalf("inactive config %+v built a daemon drill", cfg)
		}
	}
	var d *Daemon
	mux := http.NewServeMux()
	if got := d.Handler(mux, nil); got != http.Handler(mux) {
		t.Fatalf("nil drill wrapped the handler: %T", got)
	}
	if _, crash := d.Crash(1); crash || d.Poisoned(1) {
		t.Fatal("nil drill crashed or poisoned")
	}
	// Crash-only drills leave the handler chain untouched too.
	d = NewDaemon(&DaemonConfig{CrashRate: 1})
	if got := d.Handler(mux, nil); got != http.Handler(mux) {
		t.Fatalf("crash-only drill wrapped the handler: %T", got)
	}
}

func TestNetValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  interface{ Validate() error }
		ok   bool
	}{
		{"net valid", &NetConfig{ResetRate: 0.5}, true},
		{"net edges", &NetConfig{LatencyRate: 0, ResetRate: 1}, true},
		{"net nil", (*NetConfig)(nil), true},
		{"net 1.5", &NetConfig{ResetRate: 1.5}, false},
		{"net -0.1", &NetConfig{LatencyRate: -0.1}, false},
		{"net NaN", &NetConfig{TruncateRate: nan}, false},
		{"net +Inf", &NetConfig{PartitionRate: inf}, false},
		{"net -Inf", &NetConfig{LatencyRate: -inf}, false},
		{"disk valid", &DiskConfig{TornRate: 0.3}, true},
		{"disk 2", &DiskConfig{ENOSPCRate: 2}, false},
		{"disk NaN", &DiskConfig{TornRate: nan}, false},
		{"disk +Inf", &DiskConfig{BitFlipRate: inf}, false},
		{"daemon valid", &DaemonConfig{SlowRate: 0.5, CrashRate: 1}, true},
		{"daemon nil", (*DaemonConfig)(nil), true},
		{"daemon -1", &DaemonConfig{SlowRate: -1}, false},
		{"daemon NaN", &DaemonConfig{CrashRate: nan}, false},
		{"daemon +Inf", &DaemonConfig{SlowRate: inf}, false},
	} {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: valid config rejected: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "outside [0, 1]")) {
			t.Errorf("%s: got %v, want an \"outside [0, 1]\" error", tc.name, err)
		}
	}
}

func TestDaemonCrashKeyedPerFingerprint(t *testing.T) {
	cfg := &DaemonConfig{Seed: 7, CrashRate: 0.5, CrashAfter: time.Second}
	fps := make([]uint64, 32)
	for i := range fps {
		fps[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	decide := func(order []int) map[uint64]bool {
		d := NewDaemon(cfg)
		out := make(map[uint64]bool)
		for _, i := range order {
			after, crash := d.Crash(fps[i])
			if crash && after != time.Second {
				t.Fatalf("crash after %v, want the configured 1s", after)
			}
			out[fps[i]] = crash
		}
		return out
	}
	fwd, rev := make([]int, len(fps)), make([]int, len(fps))
	for i := range fps {
		fwd[i], rev[len(fps)-1-i] = i, i
	}
	a, b := decide(fwd), decide(rev)
	crashed := 0
	for _, fp := range fps {
		if a[fp] != b[fp] {
			t.Fatalf("fingerprint %016x: crash %v in one order, %v in the other", fp, a[fp], b[fp])
		}
		if a[fp] {
			crashed++
		}
	}
	if crashed == 0 || crashed == len(fps) {
		t.Fatalf("rate 0.5 crashed %d of %d fingerprints", crashed, len(fps))
	}
	// A second run of one spec draws afresh: over many reruns the same
	// fingerprint sees both outcomes.
	d := NewDaemon(cfg)
	seen := map[bool]bool{}
	for i := 0; i < 32; i++ {
		_, crash := d.Crash(fps[0])
		seen[crash] = true
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("32 reruns of one fingerprint saw only %v", seen)
	}
}

func TestDaemonSlowHandlerDeterministicPerPath(t *testing.T) {
	cfg := &DaemonConfig{Seed: 5, SlowRate: 0.5, SlowMax: time.Millisecond}
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	run := func(paths []string) (map[string]int, float64) {
		reg := metrics.NewRegistry()
		slowed := reg.Counter("slowed", "")
		h := NewDaemon(cfg).Handler(ok, slowed)
		perPath := make(map[string]int)
		for _, p := range paths {
			before := slowed.Value()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Body.String() != "ok" {
				t.Fatalf("slowed request to %s not served: %q", p, rec.Body.String())
			}
			if slowed.Value() > before {
				perPath[p]++
			}
		}
		return perPath, slowed.Value()
	}
	var interleaved, grouped []string
	for i := 0; i < 10; i++ {
		interleaved = append(interleaved, "/healthz", "/metrics")
		grouped = append(grouped, "/healthz")
	}
	for i := 0; i < 10; i++ {
		grouped = append(grouped, "/metrics")
	}
	// Interleaving does not matter: the draws for one path depend only
	// on how many requests that path has seen.
	a, na := run(interleaved)
	b, nb := run(grouped)
	if na != nb || a["/healthz"] != b["/healthz"] || a["/metrics"] != b["/metrics"] {
		t.Fatalf("slow decisions depend on arrival order: %v (%v) vs %v (%v)", a, na, b, nb)
	}
	if na == 0 || na == float64(len(interleaved)) {
		t.Fatalf("rate 0.5 slowed %v of %d requests", na, len(interleaved))
	}
}

// Concurrent callers race only for ordinals, and each site's set of
// ordinals is fixed, so the per-site decision count is too.
func TestDaemonConcurrentDecisionsMatchSequential(t *testing.T) {
	cfg := &DaemonConfig{Seed: 3, CrashRate: 0.5}
	const fps, runs = 4, 16
	count := func(concurrent bool) int64 {
		d := NewDaemon(cfg)
		var wg sync.WaitGroup
		var crashes atomic.Int64
		for i := 0; i < fps*runs; i++ {
			call := func() {
				if _, crash := d.Crash(uint64(i % fps)); crash {
					crashes.Add(1)
				}
			}
			if !concurrent {
				call()
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); call() }()
		}
		wg.Wait()
		return crashes.Load()
	}
	if seq, par := count(false), count(true); seq != par {
		t.Fatalf("concurrent callers saw %d crashes, sequential %d", par, seq)
	}
}

func TestTransportResetAndSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	rt := NewTransport(NetConfig{Seed: 7, ResetRate: 0.5}, nil, reg)
	cl := &http.Client{Transport: rt}

	// Record which attempts fail, then replay with a fresh transport at
	// the same seed: the schedule must match exactly.
	run := func(rt http.RoundTripper) []bool {
		cl := &http.Client{Transport: rt}
		var failed []bool
		for i := 0; i < 20; i++ {
			resp, err := cl.Get(srv.URL)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			failed = append(failed, err != nil)
		}
		return failed
	}
	first := run(cl.Transport)
	second := run(NewTransport(NetConfig{Seed: 7, ResetRate: 0.5}, nil, metrics.NewRegistry()))
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("schedule diverged at attempt %d: %v vs %v", i, first, second)
		}
	}
	var resets int
	for _, f := range first {
		if f {
			resets++
		}
	}
	if resets == 0 || resets == len(first) {
		t.Fatalf("rate 0.5 gave %d/%d resets — not injecting or injecting always", resets, len(first))
	}
	if !strings.Contains(render(t, reg), "skyran_chaos_net_resets_total") {
		t.Fatal("reset counter not registered")
	}
}

func TestTransportPartitionHosts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	rt := NewTransport(NetConfig{Seed: 1, PartitionHosts: []string{host}}, nil, nil)
	cl := &http.Client{Transport: rt}
	if _, err := cl.Get(srv.URL); err == nil {
		t.Fatal("partitioned host served a request")
	}

	// A delayed partition lets early requests through.
	rt = NewTransport(NetConfig{Seed: 1, PartitionHosts: []string{host}, PartitionAfter: time.Hour}, nil, nil)
	cl = &http.Client{Transport: rt}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatalf("pre-partition request failed: %v", err)
	}
	resp.Body.Close()

	// Other hosts are unaffected.
	rt = NewTransport(NetConfig{Seed: 1, PartitionHosts: []string{"203.0.113.1:9"}}, nil, nil)
	cl = &http.Client{Transport: rt}
	if resp, err := cl.Get(srv.URL); err != nil {
		t.Fatalf("unpartitioned host failed: %v", err)
	} else {
		resp.Body.Close()
	}
}

func TestTransportTruncation(t *testing.T) {
	const body = "0123456789abcdef0123456789abcdef"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	cl := &http.Client{Transport: NewTransport(NetConfig{Seed: 3, TruncateRate: 1}, nil, reg)}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body ended with %v, want ErrUnexpectedEOF", err)
	}
	if len(b) >= len(body) {
		t.Fatalf("body not truncated: got %d bytes of %d", len(b), len(body))
	}
	if string(b) != body[:len(b)] {
		t.Fatalf("truncation altered bytes: %q", b)
	}
}

func TestTransportLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	cl := &http.Client{Transport: NewTransport(NetConfig{Seed: 5, LatencyRate: 1, LatencyMax: 5 * time.Millisecond}, nil, reg)}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	resp.Body.Close()
	if got := render(t, reg); !strings.Contains(got, "skyran_chaos_net_latency_injections_total 1") {
		t.Fatalf("latency injection not counted:\n%s", got)
	}
}

func TestDiskInjectorFaults(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 256)

	enospc := NewDiskInjector(DiskConfig{Seed: 11, ENOSPCRate: 1}, nil)
	if _, err := enospc.Mutate("/tmp/a.ckpt", payload); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC rate 1 returned %v", err)
	}

	torn := NewDiskInjector(DiskConfig{Seed: 11, TornRate: 1}, nil)
	out, err := torn.Mutate("/tmp/a.ckpt", payload)
	if err != nil {
		t.Fatalf("torn write errored: %v", err)
	}
	if len(out) >= len(payload) {
		t.Fatalf("torn write kept %d of %d bytes", len(out), len(payload))
	}
	if !bytes.Equal(out, payload[:len(out)]) {
		t.Fatal("torn write is not a prefix")
	}

	flip := NewDiskInjector(DiskConfig{Seed: 11, BitFlipRate: 1}, nil)
	out, err = flip.Mutate("/tmp/a.ckpt", payload)
	if err != nil {
		t.Fatalf("bit flip errored: %v", err)
	}
	if len(out) != len(payload) {
		t.Fatalf("bit flip changed length: %d", len(out))
	}
	diff := 0
	for i := range out {
		if out[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip changed %d bytes, want 1", diff)
	}
	// The source buffer must be untouched.
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xAA}, 256)) {
		t.Fatal("Mutate modified the caller's buffer")
	}
}

func TestDiskInjectorDeterministicPerSite(t *testing.T) {
	run := func() []bool {
		inj := NewDiskInjector(DiskConfig{Seed: 21, ENOSPCRate: 0.5}, nil)
		var failed []bool
		for i := 0; i < 32; i++ {
			_, err := inj.Mutate("/a/journal.json", []byte("x"))
			failed = append(failed, err != nil)
		}
		return failed
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("disk schedule diverged at op %d", i)
		}
	}
	// The site key is the base name: the same file under another parent
	// must see the same schedule.
	inj := NewDiskInjector(DiskConfig{Seed: 21, ENOSPCRate: 0.5}, nil)
	var moved []bool
	for i := 0; i < 32; i++ {
		_, err := inj.Mutate("/elsewhere/journal.json", []byte("x"))
		moved = append(moved, err != nil)
	}
	for i := range first {
		if first[i] != moved[i] {
			t.Fatalf("schedule depends on the directory, not the file (op %d)", i)
		}
	}
}
