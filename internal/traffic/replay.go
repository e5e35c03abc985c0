package traffic

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/checkpoint"
)

// Trace capture & replay: a run can record the packet arrivals its
// workload generated (plus each UE's position at every serving-phase
// start — the run's mobility, as the traffic path sees it) into a
// versioned container file, and a later run with Spec.Mode = replay
// feeds the recorded arrivals through the same serving loop instead of
// generating fresh ones. Because arrivals are captured upstream of the
// fault plan and the bearer path, a replay against the same scenario
// seed reproduces the original per-UE KPI rows byte for byte — the
// recorded-trace regression workload the evaluation methodology calls
// for.

// tracePayloadVersion is the payload version written into
// KindTrafficTrace containers; bump on any section layout change.
const tracePayloadVersion = 1

// Trace section names.
const (
	traceSectionMeta   = "meta"
	traceSectionPhases = "phases"
)

// TraceUE is one UE at a phase start: its ID and planar position.
type TraceUE struct {
	ID   int
	X, Y float64
}

// TracePhase is one recorded serving phase: its duration, the UE
// field at phase start, and the merged arrival stream in pop order
// (times relative to the phase start).
type TracePhase struct {
	Seconds  float64
	UEs      []TraceUE
	Arrivals []Arrival
}

// Trace is a recorded traffic workload.
type Trace struct {
	// Spec is the capturing run's normalized traffic spec; replay uses
	// its Model to label the KPI rows exactly as the original did.
	Spec Spec
	// Fingerprint is the capturing run's scenario fingerprint, so a
	// trace cannot silently replay into a different scenario.
	Fingerprint uint64
	// Phases are the serving phases in execution order.
	Phases []TracePhase
}

// traceMeta is the gob form of the Trace header.
type traceMeta struct {
	Spec        Spec
	Fingerprint uint64
	Phases      int
}

// WriteFile commits the trace atomically as a checkpoint-format
// container and returns the encoded size.
func (tr *Trace) WriteFile(path string) (int64, error) {
	meta, err := gobTrace(traceMeta{Spec: tr.Spec, Fingerprint: tr.Fingerprint, Phases: len(tr.Phases)})
	if err != nil {
		return 0, fmt.Errorf("traffic: encoding trace meta: %w", err)
	}
	phases, err := gobTrace(tr.Phases)
	if err != nil {
		return 0, fmt.Errorf("traffic: encoding trace phases: %w", err)
	}
	c := checkpoint.New(checkpoint.KindTrafficTrace, tracePayloadVersion, tr.Fingerprint)
	c.Add(traceSectionMeta, meta)
	c.Add(traceSectionPhases, phases)
	return checkpoint.WriteFileAtomic(path, c)
}

// ReadTraceFile decodes and verifies a trace file.
func ReadTraceFile(path string) (*Trace, error) {
	c, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if c.Kind != checkpoint.KindTrafficTrace {
		return nil, fmt.Errorf("%w: %q, want %q", checkpoint.ErrKind, c.Kind, checkpoint.KindTrafficTrace)
	}
	if c.Version != tracePayloadVersion {
		return nil, fmt.Errorf("%w: trace payload version %d, support %d",
			checkpoint.ErrVersion, c.Version, tracePayloadVersion)
	}
	var meta traceMeta
	b, ok := c.Section(traceSectionMeta)
	if !ok {
		return nil, fmt.Errorf("traffic: trace has no %q section", traceSectionMeta)
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("traffic: decoding trace meta: %w", err)
	}
	tr := &Trace{Spec: meta.Spec, Fingerprint: meta.Fingerprint}
	b, ok = c.Section(traceSectionPhases)
	if !ok {
		return nil, fmt.Errorf("traffic: trace has no %q section", traceSectionPhases)
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&tr.Phases); err != nil {
		return nil, fmt.Errorf("traffic: decoding trace phases: %w", err)
	}
	if len(tr.Phases) != meta.Phases {
		return nil, fmt.Errorf("traffic: trace declares %d phases, carries %d", meta.Phases, len(tr.Phases))
	}
	for i := range tr.Phases {
		if err := tr.Phases[i].Validate(); err != nil {
			return nil, fmt.Errorf("traffic: trace phase %d: %w", i, err)
		}
	}
	return tr, nil
}

// maxTracePacketBytes is the largest packet a trace may carry — the
// Spec.PacketBytes bound. The lower bound is one byte, not the spec's
// 20: the web model's last packet of a flow carries the flow's
// remainder, so faithful captures hold shorter packets.
const maxTracePacketBytes = 65000

// Validate checks that the phase can be served: every arrival names a
// UE of the phase, carries 1..65000 bytes, and lands at a finite time
// inside [0, Seconds) in non-decreasing order. A trace file is outside
// input; an arrival failing these checks would otherwise index past the
// serving loop's bearers or payload buffer.
func (p *TracePhase) Validate() error {
	prev := 0.0
	for k, a := range p.Arrivals {
		switch {
		case a.UE < 0 || a.UE >= len(p.UEs):
			return fmt.Errorf("arrival %d: UE index %d outside [0, %d)", k, a.UE, len(p.UEs))
		case a.Bytes < 1 || a.Bytes > maxTracePacketBytes:
			return fmt.Errorf("arrival %d: %d bytes outside [1, %d]", k, a.Bytes, maxTracePacketBytes)
		case math.IsNaN(a.T) || math.IsInf(a.T, 0) || a.T < 0 || a.T >= p.Seconds:
			return fmt.Errorf("arrival %d: time %g outside [0, %g)", k, a.T, p.Seconds)
		case a.T < prev:
			return fmt.Errorf("arrival %d: time %g before the previous arrival's %g", k, a.T, prev)
		}
		prev = a.T
	}
	return nil
}

func gobTrace(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Phase returns the recorded phase by index (the world's serve-phase
// counter), erroring when the replayed run serves more phases than
// were captured.
func (tr *Trace) Phase(i uint64) (*TracePhase, error) {
	if i >= uint64(len(tr.Phases)) {
		return nil, fmt.Errorf("traffic: trace has %d phases, phase %d requested (replayed run serves more phases than were captured)",
			len(tr.Phases), i)
	}
	return &tr.Phases[i], nil
}

// Stream is the serving loop's view of a phase's arrivals: Generator
// (live workload models) and replayStream (recorded traces) both
// satisfy it.
type Stream interface {
	// Pop returns the next arrival strictly before limit; ok=false when
	// none remains before limit.
	Pop(limit float64) (Arrival, bool)
}

var (
	_ Stream = (*Generator)(nil)
	_ Stream = (*replayStream)(nil)
)

// Stream returns the phase's arrivals as a pop-order stream.
func (p *TracePhase) Stream() Stream { return &replayStream{arrivals: p.Arrivals} }

type replayStream struct {
	arrivals []Arrival
	next     int
}

func (s *replayStream) Pop(limit float64) (Arrival, bool) {
	if s.next >= len(s.arrivals) || s.arrivals[s.next].T >= limit {
		return Arrival{}, false
	}
	a := s.arrivals[s.next]
	s.next++
	return a, true
}

// Capture accumulates a run's serving phases for later replay.
type Capture struct {
	Trace Trace
	cur   *TracePhase
}

// NewCapture starts a capture for the given (normalized) traffic spec
// and scenario fingerprint.
func NewCapture(spec Spec, fingerprint uint64) *Capture {
	return &Capture{Trace: Trace{Spec: spec, Fingerprint: fingerprint}}
}

// BeginPhase opens a new serving phase with the UE field at its start.
func (c *Capture) BeginPhase(seconds float64, ues []TraceUE) {
	c.Trace.Phases = append(c.Trace.Phases, TracePhase{Seconds: seconds, UEs: ues})
	c.cur = &c.Trace.Phases[len(c.Trace.Phases)-1]
}

// Arrival records one generated arrival (pre-fault, pre-bearer — the
// offered workload itself).
func (c *Capture) Arrival(a Arrival) {
	c.cur.Arrivals = append(c.cur.Arrivals, a)
}
