package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/enb"
	"repro/internal/geom"
	"repro/internal/interference"
	"repro/internal/terrain"
	"repro/internal/traffic"
	"repro/internal/ue"
)

func flatUEs(surf *terrain.Surface, n int) []*ue.UE {
	b := surf.Bounds()
	out := make([]*ue.UE, n)
	for i := 0; i < n; i++ {
		fx := (float64(i%4) + 0.5) / 4
		fy := (float64(i/4) + 0.5) / 4
		out[i] = ue.New(i+1, geom.V2(b.MinX+fx*b.Width(), b.MinY+fy*b.Height()))
	}
	return out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// golden compares v's JSON encoding with the recorded bytes in
// testdata/name.
func golden(t *testing.T, name string, v any) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, v) + "\n"; got != string(want) {
		t.Errorf("%s: report diverged from the recorded bytes:\nwant %s\ngot  %s", name, want, got)
	}
}

// Backward-compat golden: the single-UAV world and a single-cell fleet
// must both reproduce the KPI rows recorded before the world started
// serving through the fleet loop — no existing number may move.
func TestSingleCellMatchesLegacyWorld(t *testing.T) {
	for _, model := range []traffic.Model{traffic.ModelPoisson, traffic.ModelFullBuffer} {
		surf := terrain.ByName("FLAT", 11)
		cfg := Config{Terrain: surf, Seed: 11, FastRanging: true}
		w, err := New(cfg, flatUEs(surf, 6))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMultiCell(cfg, 1, interference.PlanCochannel, enb.DefaultHandoverConfig(), flatUEs(surf, 6), 1)
		if err != nil {
			t.Fatal(err)
		}
		spec := traffic.Spec{Model: model, RateBps: 2e6}
		legacy, err := w.ServeTraffic(3, 10, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ServeTraffic(3, 10, spec)
		if err != nil {
			t.Fatal(err)
		}
		name := "single_cell_" + string(model) + ".json"
		golden(t, name, legacy)
		golden(t, name, got)
		if w.Clock != m.Clock {
			t.Errorf("%s: clock diverged: %v vs %v", model, w.Clock, m.Clock)
		}
	}
}

// Separate-carrier golden: with no shared spectrum every interference
// penalty is zero, so the fleet must reproduce the KPI rows recorded
// from the interference-free CQI arithmetic.
func TestSeparateCarriersMatchLegacyBits(t *testing.T) {
	surf := terrain.ByName("FLAT", 13)
	cfg := Config{Terrain: surf, Seed: 13, FastRanging: true}
	m, err := NewMultiCell(cfg, 3, interference.PlanSeparate, enb.DefaultHandoverConfig(), flatUEs(surf, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ServeTraffic(2, 10, traffic.Spec{Model: traffic.ModelCBR, RateBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "separate_carriers_cbr.json", rep)
}

// handoverFleet builds a 2-cell co-channel fleet with one mobile UE
// routed from under cell 0 to under cell 1 (forcing an A3 trigger) and
// static anchors holding each cell in place.
func handoverFleet(t *testing.T, seed uint64) *MultiCell {
	t.Helper()
	surf := terrain.ByName("FLAT", seed)
	b := surf.Bounds()
	left := geom.V2(b.MinX+0.2*b.Width(), b.Center().Y)
	right := geom.V2(b.MinX+0.8*b.Width(), b.Center().Y)
	ues := []*ue.UE{
		ue.New(1, left),
		ue.New(2, right),
		ue.New(3, left), // the traveler
	}
	ues[2].Mobility = ue.NewRoute([]geom.Vec2{right}, 60, false)
	ho := enb.HandoverConfig{HysteresisDB: 1, TTTs: 0.1, LoadBiasDB: 0.1, InterruptS: 0.05, PingPongWindowS: 1}
	m, err := NewMultiCell(Config{Terrain: surf, Seed: seed, FastRanging: true}, 2, interference.PlanCochannel, ho, ues, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Mobile = true
	return m
}

// The acceptance path: a mobile UE crossing between co-channel cells
// completes at least one handover, loses no bearer byte to the
// transfer (offered = delivered + dropped + backlog for every UE), and
// the whole phase is deterministic run-to-run.
func TestHandoverZeroByteLossAndDeterminism(t *testing.T) {
	run := func(seed uint64) (*traffic.Report, enb.HandoverStats) {
		m := handoverFleet(t, seed)
		rep, err := m.ServeTraffic(20, 10, traffic.Spec{Model: traffic.ModelCBR, RateBps: 4e5})
		if err != nil {
			t.Fatal(err)
		}
		return rep, m.HO.Stats()
	}
	rep, stats := run(21)
	if stats.Successes < 1 {
		t.Fatalf("expected at least one handover, got stats %+v", stats)
	}
	if stats.Successes != stats.Attempts {
		t.Errorf("attempts %d != successes %d (no failure path exists)", stats.Attempts, stats.Successes)
	}
	var sawHO bool
	for _, k := range rep.KPIs {
		if k.OfferedPackets != k.DeliveredPackets+k.DroppedPackets+uint64(k.BacklogPackets) {
			t.Errorf("UE %d leaks packets across handover: offered %d != delivered %d + dropped %d + backlog %d",
				k.UE, k.OfferedPackets, k.DeliveredPackets, k.DroppedPackets, k.BacklogPackets)
		}
		if k.Handovers > 0 {
			sawHO = true
			if k.Cell != 2 {
				t.Errorf("traveler UE %d ended on cell %d, want 2", k.UE, k.Cell)
			}
		}
	}
	if !sawHO {
		t.Error("no KPI row recorded a handover")
	}
	rep2, stats2 := run(21)
	if mustJSON(t, rep) != mustJSON(t, rep2) || mustJSON(t, stats) != mustJSON(t, stats2) {
		t.Error("handover run is not deterministic across identical runs")
	}
}

// Checkpoint/restore mid-window: serving 2N seconds straight must be
// byte-identical to serving N, snapshotting, restoring into a fresh
// fleet, and serving N more — with handovers landing in both halves.
func TestMultiCellSnapshotRestoreMidHandover(t *testing.T) {
	spec := traffic.Spec{Model: traffic.ModelCBR, RateBps: 4e5}

	full := handoverFleet(t, 33)
	repA, err := full.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := full.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}

	half := handoverFleet(t, 33)
	repA2, err := half.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := half.Snapshot()

	resumed := handoverFleet(t, 33)
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	repB2, err := resumed.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}

	if mustJSON(t, repA) != mustJSON(t, repA2) {
		t.Error("first-half reports diverged run-to-run")
	}
	if mustJSON(t, repB) != mustJSON(t, repB2) {
		t.Error("resumed second half diverged from the straight-through run")
	}
	if full.HO.Stats().Successes < 1 {
		t.Fatalf("scenario produced no handovers: %+v", full.HO.Stats())
	}
	if mustJSON(t, full.HO.Stats()) != mustJSON(t, resumed.HO.Stats()) {
		t.Errorf("handover stats diverged: %+v vs %+v", full.HO.Stats(), resumed.HO.Stats())
	}
	if mustJSON(t, full.Snapshot()) != mustJSON(t, resumed.Snapshot()) {
		t.Error("final fleet states diverged")
	}
}

// Co-channel interference must cost throughput: the same fleet on
// separate carriers delivers at least as much as on one shared carrier.
func TestCochannelDegradesThroughput(t *testing.T) {
	run := func(plan interference.Plan) float64 {
		surf := terrain.ByName("FLAT", 17)
		cfg := Config{Terrain: surf, Seed: 17, FastRanging: true}
		m, err := NewMultiCell(cfg, 3, plan, enb.DefaultHandoverConfig(), flatUEs(surf, 8), 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.ServeTraffic(2, 10, traffic.Spec{Model: traffic.ModelFullBuffer})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary.DeliveredBps
	}
	sep, co := run(interference.PlanSeparate), run(interference.PlanCochannel)
	if co > sep {
		t.Errorf("co-channel fleet delivered more than separate carriers: %.0f > %.0f bps", co, sep)
	}
}

// Reselect moves a UE to a less-loaded cell with no handover KPIs.
func TestReselectLoadBalances(t *testing.T) {
	m := handoverFleet(t, 51)
	// Teleport the traveler next to the right-hand anchor and reselect.
	m.UEs[2].Mobility = nil
	m.UEs[2].Pos = m.UEs[1].Pos
	// KMeans ordering decides which cell index covers the right side.
	rightCell := 0
	if m.Graph.Cells[1].XY().Dist(m.UEs[1].Pos) < m.Graph.Cells[0].XY().Dist(m.UEs[1].Pos) {
		rightCell = 1
	}
	if err := m.Reselect(); err != nil {
		t.Fatal(err)
	}
	if m.CellOf(2) != rightCell {
		t.Fatalf("traveler on cell %d after reselection, want %d", m.CellOf(2), rightCell)
	}
	if s := m.HO.Stats(); s.Attempts != 0 || s.Successes != 0 {
		t.Fatalf("reselection counted as handover: %+v", s)
	}
	// The context moved intact: the new cell can serve it.
	if _, ok := m.Cells[rightCell].Bearer(m.IMSIOf(2)); !ok {
		t.Fatal("bearer did not move with reselection")
	}
}

// A replayed trace is outside input: an arrival naming a UE the phase
// lacks must fail the serving phase with an error, not index past the
// bearers.
func TestReplayRejectsOutOfRangeArrival(t *testing.T) {
	surf := terrain.ByName("FLAT", 11)
	w, err := New(Config{Terrain: surf, Seed: 11, FastRanging: true}, flatUEs(surf, 2))
	if err != nil {
		t.Fatal(err)
	}
	var ues []traffic.TraceUE
	for _, u := range w.UEs {
		ues = append(ues, traffic.TraceUE{ID: u.ID, X: u.Pos.X, Y: u.Pos.Y})
	}
	w.SetReplayTrace(&traffic.Trace{Phases: []traffic.TracePhase{{
		Seconds:  1,
		UEs:      ues,
		Arrivals: []traffic.Arrival{{UE: 2, T: 0.1, Bytes: 100}},
	}}})
	spec := traffic.Spec{Model: traffic.ModelPoisson, RateBps: 1e5, Mode: traffic.ModeReplay, TraceFile: "preloaded"}
	if _, err := w.ServeTraffic(1, 10, spec); err == nil {
		t.Fatal("replay of an arrival for UE index 2 of a 2-UE phase was accepted")
	}
}
