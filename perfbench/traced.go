package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// span is one traced interval. Spans of one unit share Unit; Parent is
// the ID of the enclosing span (0 for a unit's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Unit    int    `json:"unit"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the pass ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, unit, parent int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Unit: unit, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds()})
	return id
}

// open starts a span that close ends.
func (l *spanLog) open(name string, unit, parent int) int {
	now := time.Now()
	return l.add(name, unit, parent, now, now)
}

func (l *spanLog) close(id int) {
	l.spans[id-1].EndNS = time.Since(l.t0).Nanoseconds()
}

// total sums the durations of the spans called name, in seconds.
func (l *spanLog) total(name string) float64 {
	var ns int64
	for _, s := range l.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerFuncs are the exported functions whose cumulative CPU share the
// traced pass reports, by metric prefix.
var ledgerFuncs = []struct{ metric, sym string }{
	{"locate.SolveJoint", "repro/internal/locate.SolveJoint"},
	{"traj.Planner.Plan", "repro/internal/traj.Planner.Plan"},
	{"sim.LocalizationFlight", "repro/internal/sim.(*World).LocalizationFlight"},
	{"sim.FlyMeasureWithRanging", "repro/internal/sim.(*World).FlyMeasureWithRanging"},
	{"rem.Interpolate", "repro/internal/rem.(*Map).Interpolate"},
	{"rem.PlaceMasked", "repro/internal/rem.PlaceMasked"},
	{"core.BestPosition", "repro/internal/core.BestPosition"},
	{"sim.ServeTraffic", "repro/internal/sim.(*World).ServeTraffic"},
	{"sim.MeasuredSNR", "repro/internal/sim.(*World).MeasuredSNR"},
	{"traffic.Generator.Pop", "repro/internal/traffic.(*Generator).Pop"},
	{"enb.RunTTIFunc", "repro/internal/enb.(*ENodeB).RunTTIFunc"},
	{"enb.Bearer.DeliverGTPUAt", "repro/internal/enb.(*Bearer).DeliverGTPUAt"},
	{"enb.Bearer.CreditAt", "repro/internal/enb.(*Bearer).CreditAt"},
	{"sim.MultiCell.ServeTraffic", "repro/internal/sim.(*MultiCell).ServeTraffic"},
	{"interference.PlaceMaxMinSINR", "repro/internal/interference.PlaceMaxMinSINR"},
	{"interference.WidebandSINRdB", "repro/internal/interference.(*Graph).WidebandSINRdB"},
}

// ledgerPkgs are the packages whose flat CPU share is reported.
var ledgerPkgs = []struct{ metric, pkg string }{
	{"radio", "repro/internal/radio"},
	{"noise", "repro/internal/noise"},
}

// tracedResult is the in-process pass's raw ledger.
type tracedResult struct {
	jobs            int
	attempted       int
	failed          int
	errs            []error
	spans           *spanLog
	prof            *profile
	cpuS            float64 // process CPU over the pass
	gcCPU, allocB   float64
	offered, deliv  uint64
	hoAtt, hoSucc   uint64
	obsHit, obsMiss uint64
}

// runTraced runs the first quarter of the run's measured units one job
// at a time through scenario.Run, under a CPU profile, recording a span
// per layer boundary the exported hooks expose, and checks every result
// against the committed digests.
func runTraced(ctx context.Context, w *workload, seed int64, n int, workdir, goBin string, chk *checker) (*tracedResult, error) {
	_, measured := w.units(seed, n)
	list := measured[:(len(measured)+3)/4]

	profPath := filepath.Join(workdir, fmt.Sprintf("cpu-%s-%d.prof", w.name, seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	rt := &tracedResult{spans: &spanLog{t0: time.Now()}}
	gc0, alloc0 := runtimeCounters()
	hit0, miss0 := radio.ObsCacheStats()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		pf.Close()
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	for u, k := range list {
		rt.attempted++
		if err := rt.unit(ctx, w, u, k, workdir, chk); err != nil {
			rt.failed++
			rt.errs = append(rt.errs, fmt.Errorf("traced unit %d (pool %d): %w", u, k, err))
		}
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	gc1, alloc1 := runtimeCounters()
	hit1, miss1 := radio.ObsCacheStats()
	rt.jobs = len(list) * w.seedsPerUnit()
	rt.cpuS, rt.gcCPU, rt.allocB = cpu1-cpu0, gc1-gc0, alloc1-alloc0
	rt.obsHit, rt.obsMiss = hit1-hit0, miss1-miss0

	syms := make([]string, len(ledgerFuncs))
	for i, f := range ledgerFuncs {
		syms[i] = f.sym
	}
	if rt.prof, err = readProfile(goBin, profPath, syms); err != nil {
		return nil, err
	}
	if err := rt.spans.write(filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))); err != nil {
		return nil, err
	}
	return rt, nil
}

// unit runs one pool entry under a root span ("job", or "campaign"
// holding one "job" span per seed) and checks its bytes.
func (rt *tracedResult) unit(ctx context.Context, w *workload, u, k int, workdir string, chk *checker) error {
	name := "job"
	if w.campaignSeeds > 0 {
		name = "campaign"
	}
	root := rt.spans.open(name, u, 0)
	b, err := unitBytes(w, k, func(spec scenario.Spec) ([]byte, error) {
		if w.campaignSeeds == 0 {
			return rt.job(ctx, w, spec, u, root, workdir)
		}
		id := rt.spans.open("job", u, root)
		defer rt.spans.close(id)
		return rt.job(ctx, w, spec, u, id, workdir)
	})
	rt.spans.close(root)
	if err != nil {
		return err
	}
	return chk.check(k, b)
}

// job runs one scenario with the daemon's options (a trace recorder,
// and checkpoints when the workload's daemon writes them) and returns
// the canonical result bytes. Spans: scenario.build (call → OnStart);
// per epoch, epoch (→ OnEpoch) split at the controller's KindEpoch
// record into core.controller and score_serve; checkpoint.write
// (OnCheckpoint); scenario.MarshalResult. On a campaign the merge is
// part of the campaign span.
func (rt *tracedResult) job(ctx context.Context, w *workload, spec scenario.Spec, u, parent int, workdir string) ([]byte, error) {
	call := time.Now()
	mark := call
	var ctrlEnd time.Time
	rec := trace.NewRecorder(nil)
	unsub := rec.Subscribe(func(r trace.Record) {
		if r.Kind == trace.KindEpoch {
			ctrlEnd = time.Now()
		}
	})
	defer unsub()
	opts := scenario.Options{
		Tracer: rec,
		OnStart: func(*scenario.Result) {
			mark = time.Now()
			rt.spans.add("scenario.build", u, parent, call, mark)
		},
		OnEpoch: func(rep scenario.EpochReport) {
			now := time.Now()
			ep := rt.spans.add("epoch", u, parent, mark, now)
			if !ctrlEnd.IsZero() {
				rt.spans.add("core.controller", u, ep, mark, ctrlEnd)
				rt.spans.add("score_serve", u, ep, ctrlEnd, now)
				ctrlEnd = time.Time{}
			}
			mark = now
			if t := rep.Traffic; t != nil {
				rt.offered += t.Summary.OfferedBytes
				rt.deliv += t.Summary.DeliveredBytes
			}
			if h := rep.Handover; h != nil {
				rt.hoAtt += h.Attempts
				rt.hoSucc += h.Successes
			}
		},
	}
	if w.checkpoint {
		dir, err := os.MkdirTemp(workdir, "ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.Checkpoint = &scenario.CheckpointConfig{Dir: dir, EveryEpochs: 1}
		opts.OnCheckpoint = func(ev scenario.CheckpointEvent) {
			now := time.Now()
			rt.spans.add("checkpoint.write", u, parent, now.Add(-time.Duration(ev.Seconds*1e9)), now)
			mark = now
		}
	}
	res, _, err := scenario.Run(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	mstart := time.Now()
	b, err := scenario.MarshalResult(res)
	rt.spans.add("scenario.MarshalResult", u, parent, mstart, time.Now())
	return b, err
}

// runtimeCounters reads the process's cumulative GC CPU seconds and
// heap bytes allocated.
func runtimeCounters() (gcCPU, allocB float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocB = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocB
}
