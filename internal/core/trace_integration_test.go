package core

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/trace"
	"repro/internal/ue"
)

func TestEpochEmitsTrace(t *testing.T) {
	tr := terrain.Campus(1)
	ues := []*ue.UE{ue.New(0, vec(80, 250)), ue.New(1, vec(250, 120))}
	w, err := sim.New(sim.Config{Terrain: tr, Seed: 1, FastRanging: true}, ues)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	rec.Meta(tr.Name, 1)
	w.Tracer = rec

	s := NewSkyRAN(Config{Seed: 1, FixedAltitudeM: 60, MeasurementBudgetM: 300})
	if _, err := s.RunEpoch(w); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ServeSeconds(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	for _, r := range recs {
		counts[r.Kind]++
	}
	if counts[trace.KindGPS] == 0 || counts[trace.KindSNR] == 0 {
		t.Errorf("flight telemetry missing: %v", counts)
	}
	if counts[trace.KindEpoch] != 1 || counts[trace.KindPlacement] != 1 {
		t.Errorf("epoch records: %v", counts)
	}
	if counts[trace.KindFix] != 2 {
		t.Errorf("fix records: %v", counts)
	}
	if counts[trace.KindServe] != 2 {
		t.Errorf("serve records: %v", counts)
	}
	// Summary should reflect the run coherently.
	sum := trace.Summarize(recs)
	if sum.Epochs != 1 || sum.FlightM < 200 {
		t.Errorf("summary: %+v", sum)
	}
}
