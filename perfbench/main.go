// Command perfbench is the repository's benchmark. It starts real
// skyrand processes, drives one workload through the public HTTP API
// with a closed-loop client, checks every result against committed
// digests and invariants, and prints the end-to-end metrics (-trace 0)
// or the per-layer ledger (-trace 1), whose extra in-process pass runs
// the same units through scenario.Run under spans and a CPU profile.
// The last line of standard output is one JSON object; the report on
// standard error gives each metric with its unit and sample count.
//
// Run it from the repository root through perfbench/run.sh, which
// builds skyrand and this command first:
//
//	bash perfbench/run.sh --workload epoch --seed 1 --seconds 16 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is a metric plus the sample description the report prints.
type row struct {
	name    string
	m       metric
	samples string
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: epoch, serve, fleet, sweep, or all (with -gen-digests, empty means all)")
		seed    = flag.Int64("seed", 1, "workload seed; it chooses the measured units")
		seconds = flag.Float64("seconds", 16, "run length on the reference host; sets the unit count")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger with a traced in-process pass")
		bin     = flag.String("skyrand", "", "skyrand binary")
		workdir = flag.String("workdir", ".bench_build/perfbench/run", "directory for daemon state, logs, profiles and spans")
		goBin   = flag.String("go", "go", "go command, for go tool pprof")
		gen     = flag.String("gen-digests", "", "write the digest table of every workload pool to this file and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *bin, *workdir, *goBin, *gen); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, bin, workdir, goBin, gen string) error {
	ctx := context.Background()
	if gen != "" {
		return genDigests(ctx, gen, name)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if bin == "" {
		return errors.New("-skyrand is required")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	var list []*workload
	if name == "all" {
		list = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		list = []*workload{w}
	}
	all := map[string]result{}
	var last result
	for _, w := range list {
		res, rows, err := runWorkload(ctx, w, seed, seconds, traced == 1, bin, workdir, goBin, digests)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report(w, seed, res, rows)
		all[w.name], last = res, res
	}
	var out []byte
	if name == "all" {
		out, err = json.Marshal(all)
	} else {
		out, err = json.Marshal(last)
	}
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runWorkload makes one run: the end-to-end pass always, and with
// traced the in-process pass; it returns the result line and the rows
// it reports.
func runWorkload(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, bin, workdir, goBin string, digests digestTable) (result, []row, error) {
	chk, err := newChecker(w, digests)
	if err != nil {
		return result{}, nil, err
	}
	n := w.unitsFor(seconds)
	e, err := runE2E(ctx, w, bin, workdir, seed, n, chk)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	errs := e.errs
	var rows []row
	if !traced {
		rows, err = endToEnd(w, e)
		if err != nil {
			return result{}, nil, err
		}
	} else {
		t, err := runTraced(ctx, w, seed, n, workdir, goBin, chk)
		if err != nil {
			return result{}, nil, err
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		errs = append(errs, t.errs...)
		rows = append(e2eLayers(w, e), tracedLayers(t)...)
	}
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	res.Correct = res.Failed == 0
	for _, r := range rows {
		res.Metrics[r.name] = r.m
	}
	cleanDeployments(workdir)
	return res, rows, nil
}

// endToEnd computes the user-visible metrics of an untraced run. On
// sweep the unit is a campaign: job_s is campaign time and jobs_per_s
// counts seeds.
func endToEnd(w *workload, e *e2eResult) ([]row, error) {
	durs := make([]float64, len(e.outs))
	first, last := e.outs[0].start, e.outs[0].end
	for i := range e.outs {
		o := &e.outs[i]
		durs[i] = o.seconds()
		if o.start.Before(first) {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
	}
	n := len(durs)
	jobs := n * w.seedsPerUnit()
	p, tv, ok := tail(durs)
	if !ok {
		return nil, fmt.Errorf("%d units leave no percentile with %d samples beyond it", n, minBeyond)
	}
	unit := "jobs"
	if w.campaignSeeds > 0 {
		unit = "campaigns"
	}
	return []row{
		{"jobs_per_s", metric{float64(jobs) / last.Sub(first).Seconds(), "1/s"}, fmt.Sprintf("%d jobs in one closed-loop window", jobs)},
		{"job_s.p50", metric{median(durs), "s"}, fmt.Sprintf("median of n=%d %s", n, unit)},
		{"job_s.tail", metric{tv, "s"}, fmt.Sprintf("p%d of n=%d %s", p, n, unit)},
		{"cpu_s_per_job", metric{e.cpuS / float64(jobs), "s"}, fmt.Sprintf("%d processes over %d jobs", e.daemons, jobs)},
		{"rss_peak_mb", metric{e.hwmMB, "MB"}, fmt.Sprintf("VmHWM summed over %d processes", e.daemons)},
		{"setup_s", metric{median(e.setups), "s"}, fmt.Sprintf("median of %d deployments", len(e.setups))},
	}, nil
}

// e2eLayers is the ledger part taken from the daemons: job envelopes,
// /metrics deltas over the window and the client's own counters.
func e2eLayers(w *workload, e *e2eResult) []row {
	byID := map[string]*jobEnvelope{}
	var queue, run []float64
	for i := range e.envs {
		env := &e.envs[i]
		byID[env.ID] = env
		queue = append(queue, env.queueS())
		run = append(run, env.runS())
	}
	units := len(e.outs)
	jobs := float64(units * w.seedsPerUnit())
	var overhead []float64
	var wallSum, overSum, runSum float64
	for _, r := range run {
		runSum += r
	}
	if w.campaignSeeds == 0 {
		for i := range e.outs {
			if env := byID[e.outs[i].id]; env != nil {
				overhead = append(overhead, e.outs[i].seconds()-env.queueS()-env.runS())
			}
		}
	} else {
		// A campaign's sub-jobs are the worker jobs submitted inside its
		// client window (one client, so windows do not overlap); its
		// server-side span is the longest per-worker stretch from first
		// submission to last finish.
		for i := range e.outs {
			o := &e.outs[i]
			spans := map[int][2]int64{} // worker → [first submit, last finish]
			for j := range e.envs {
				env := &e.envs[j]
				if env.Submitted.Before(o.start.Truncate(time.Millisecond)) || env.Submitted.After(o.end) {
					continue
				}
				s, seen := spans[env.worker]
				sub, fin := env.Submitted.UnixNano(), env.Finished.UnixNano()
				if !seen || sub < s[0] {
					s[0] = sub
				}
				if !seen || fin > s[1] {
					s[1] = fin
				}
				spans[env.worker] = s
			}
			var longest float64
			for _, s := range spans {
				longest = max(longest, float64(s[1]-s[0])/1e9)
			}
			wall := o.seconds()
			overhead = append(overhead, wall-longest)
			wallSum += wall
			overSum += wall - longest
		}
	}
	d := e.delta
	ckptPct := 100 * ratio(d["skyran_checkpoint_write_seconds_sum"], runSum)
	var shards, subjobs, busy, overPct float64
	if w.campaignSeeds > 0 {
		shards = d["skyran_cluster_routing_decisions_total"] / float64(units)
		subjobs = d["skyran_cluster_subjobs_dispatched_total"] / float64(units)
		busy = runSum / (float64(e.workers) * wallSum)
		overPct = 100 * overSum / wallSum
	}
	envN := fmt.Sprintf("n=%d daemon jobs", len(e.envs))
	return []row{
		{"server.queue_s", metric{mean(queue), "s"}, "mean, " + envN},
		{"server.run_s", metric{mean(run), "s"}, "mean, " + envN},
		{"server.overhead_s", metric{mean(overhead), "s"}, fmt.Sprintf("mean, n=%d units", len(overhead))},
		{"checkpoint.writes", metric{d["skyran_checkpoint_writes_total"] / jobs, "count"}, "per job"},
		{"checkpoint.bytes", metric{d["skyran_checkpoint_bytes_total"] / jobs, "B"}, "per job"},
		{"checkpoint.write_pct", metric{ckptPct, "%"}, "share of server.run_s"},
		{"cluster.shards_per_campaign", metric{shards, "count"}, "per campaign"},
		{"cluster.subjobs_dispatched", metric{subjobs, "count"}, "per campaign"},
		{"cluster.hedges", metric{d["skyran_cluster_hedges_total"], "count"}, "total"},
		{"cluster.resteals", metric{d["skyran_cluster_resteals_total"], "count"}, "total"},
		{"cluster.worker_busy_frac", metric{busy, "ratio"}, "worker run time / (workers x campaign wall)"},
		{"cluster.overhead_pct", metric{overPct, "%"}, "campaign wall beyond the longest worker span"},
		{"client.retries_429", metric{float64(e.retries), "count"}, "total"},
	}
}

// tracedLayers is the ledger part from the in-process pass.
func tracedLayers(t *tracedResult) []row {
	jobs := float64(t.jobs)
	per := fmt.Sprintf("per job, n=%d jobs", t.jobs)
	rows := []row{
		{"traced.job_s", metric{t.spans.total("job") / jobs, "s"}, per + ", wall"},
		{"traced.cpu_s_per_job", metric{t.cpuS / jobs, "s"}, per},
		{"scenario.build_s", metric{t.spans.total("scenario.build") / jobs, "s"}, per},
		{"core.epoch_s", metric{t.spans.total("epoch") / jobs, "s"}, per},
		{"scenario.MarshalResult_s", metric{t.spans.total("scenario.MarshalResult") / jobs, "s"}, per},
		{"runtime.gc.cpu_s", metric{t.gcCPU / jobs, "s"}, per},
		{"alloc_bytes_per_job", metric{t.allocB / jobs, "B"}, per},
		{"traffic.offered_bytes", metric{float64(t.offered), "B"}, fmt.Sprintf("total over %d jobs", t.jobs)},
		{"traffic.delivered_bytes", metric{float64(t.deliv), "B"}, fmt.Sprintf("total over %d jobs", t.jobs)},
		{"handover.attempts", metric{float64(t.hoAtt), "count"}, fmt.Sprintf("total over %d jobs", t.jobs)},
		{"handover.successes", metric{float64(t.hoSucc), "count"}, fmt.Sprintf("total over %d jobs", t.jobs)},
		{"radio.obscache_hits", metric{float64(t.obsHit), "count"}, "total"},
		{"radio.obscache_misses", metric{float64(t.obsMiss), "count"}, "total"},
		{"radio.obscache_hit_ratio", metric{ratio(float64(t.obsHit), float64(t.obsHit+t.obsMiss)), "ratio"}, "hits / lookups"},
	}
	samples := fmt.Sprintf("share of %.2f s CPU samples", t.prof.total)
	for _, f := range ledgerFuncs {
		rows = append(rows, row{f.metric + ".cpu_pct", metric{100 * ratio(t.prof.cum[f.sym], t.prof.total), "%"}, samples + ", cumulative"})
	}
	for _, p := range ledgerPkgs {
		rows = append(rows, row{p.metric + ".cpu_pct", metric{100 * ratio(t.prof.flat[p.pkg], t.prof.total), "%"}, samples + ", package flat"})
	}
	return rows
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints the run's metrics with units and sample counts.
func report(w *workload, seed int64, res result, rows []row) {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed %d: attempted %d, failed %d, error_frac %.4g\n",
		w.name, seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-34s %14.6g %-6s %s\n", r.name, r.m.Value, r.m.Unit, r.samples)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// genDigests runs every pool entry of the named workload ("" or "all"
// for every workload) in-process and writes the digest table, keeping
// the committed digests of the other workloads.
func genDigests(ctx context.Context, path, name string) error {
	t, err := loadDigests()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if name != "" && name != "all" && name != w.name {
			continue
		}
		d, err := poolDigests(ctx, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		t[w.name] = d
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d digests\n", w.name, len(d))
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Clean(path), append(b, '\n'), 0o644)
}
