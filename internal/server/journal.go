package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/scenario"
)

// The job journal makes the daemon crash-recoverable. When Config
// enables checkpointing, every job gets a durable record at
// journal/<id>.ckpt under the checkpoint dir: a CRC-checked container
// holding its spec and lifecycle state, rewritten atomically at each
// transition (checkpoint.Journal owns the format, write ordering,
// loading and retention). A restarted daemon scans the journal,
// re-enqueues every non-terminal job under its original ID, and
// resumes each from its newest intact checkpoint (jobs/<id>/epoch-*.ckpt)
// — falling back to older snapshots on CRC failure and to a fresh run
// when none survive. Determinism makes the fallback safe: a fresh run
// of the same spec produces the same bytes a resumed run would.

// jobJournalVersion is the payload version of KindJobJournal.
const jobJournalVersion = 1

// journalEntry is the "job" section of one job's lifecycle record.
type journalEntry struct {
	ID        string        `json:"id"`
	Spec      scenario.Spec `json:"spec"`
	State     JobState      `json:"state"`
	Recovered bool          `json:"recovered,omitempty"`
	IdemKey   string        `json:"idem_key,omitempty"`
	CkptDir   string        `json:"ckpt_dir,omitempty"` // external shard checkpoint dir
	Error     string        `json:"error,omitempty"`    // terminal failure message
	Stack     string        `json:"stack,omitempty"`    // stack trace when the run died by panic
}

// openJournal creates the checkpoint layout under root, proves the
// journal dir writable and loads the intact job records in submission
// order. An empty root (checkpointing disabled) opens nothing.
func openJournal(root string) (*checkpoint.Journal, []journalEntry, int, error) {
	if root == "" {
		return nil, nil, 0, nil
	}
	if err := os.MkdirAll(filepath.Join(root, "jobs"), 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("server: checkpoint dir: %w", err)
	}
	jl, err := checkpoint.OpenJournal(filepath.Join(root, "journal"), "j", checkpoint.KindJobJournal, jobJournalVersion)
	if err != nil {
		return nil, nil, 0, err
	}
	var entries []journalEntry
	corrupt, err := jl.Load(func(id string, box *checkpoint.Container) bool {
		var ent journalEntry
		b, ok := box.Section("job")
		if !ok || json.Unmarshal(b, &ent) != nil || ent.ID != id {
			return false
		}
		entries = append(entries, ent)
		return true
	})
	return jl, entries, corrupt, err
}

// jobCheckpointDir returns the per-job checkpoint directory.
func (s *Server) jobCheckpointDir(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, "jobs", id)
}

// writeJournal persists the job's current state. Best-effort after the
// startup writability probe: a transient write failure must not take
// down a running job, and the next transition rewrites the record.
func (s *Server) writeJournal(j *Job) {
	_ = s.journal.Write(&j.jlock, j.id, func(box *checkpoint.Container) (int, error) {
		j.mu.Lock()
		ent := journalEntry{ID: j.id, Spec: j.spec, State: j.state, Recovered: j.recovered, IdemKey: j.idemKey, CkptDir: j.ckptDir, Error: j.errMsg, Stack: j.panicStack}
		j.mu.Unlock()
		b, err := json.Marshal(ent)
		box.Add("job", b)
		return stateRank(ent.State), err
	})
}

// stateRank orders lifecycle states: queued < running < terminal.
func stateRank(st JobState) int {
	switch {
	case st == JobQueued:
		return 1
	case st == JobRunning:
		return 2
	case terminal(st):
		return 3
	}
	return 0
}

// sweepJournal applies JournalRetain and JournalMaxAge to terminal job
// records at restart. A collected job loses its journal record and its
// checkpoint directory — the disk the retention knobs actually bound.
// Recovery already advanced nextID past every journaled job, so
// collected IDs are never reissued.
func (s *Server) sweepJournal(entries []journalEntry) {
	var term []string
	for _, ent := range entries {
		if terminal(ent.State) {
			term = append(term, ent.ID)
		}
	}
	// A record that failed to delete is retried at the next restart.
	removed, _ := s.journal.Sweep(term, s.cfg.JournalRetain, s.cfg.JournalMaxAge, time.Now())
	for _, id := range removed {
		os.RemoveAll(s.jobCheckpointDir(id)) //nolint:errcheck
		s.mJournalGC.Inc()
	}
}

// recoverJobs re-enqueues every non-terminal journaled job under its
// original ID and advances nextID past every journaled job (terminal
// ones included) so new submissions never collide with old checkpoint
// directories. It returns the recovered jobs in submission order.
func (s *Server) recoverJobs(entries []journalEntry) []*Job {
	var recovered []*Job
	for _, ent := range entries {
		if n := s.journal.Num(ent.ID); n > s.nextID {
			s.nextID = n
		}
		if terminal(ent.State) {
			continue
		}
		job := &Job{
			id:        ent.ID,
			spec:      ent.Spec,
			idemKey:   ent.IdemKey,
			ckptDir:   ent.CkptDir,
			state:     JobQueued,
			recovered: true,
			events:    newEventLog(),
			done:      make(chan struct{}),
		}
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		if ent.IdemKey != "" {
			s.idemKeys[ent.IdemKey] = job.id
		}
		recovered = append(recovered, job)
	}
	return recovered
}
